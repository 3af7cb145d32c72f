package replica

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

func newTestPrimary(t *testing.T, opt PrimaryOptions) (*Primary, *config.Tracked) {
	t.Helper()
	tr, err := config.Track(config.Greece(), core.StoreOptions{Workers: 1, Pct: opt.Pct})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return NewPrimary(tr, tr, opt), tr
}

func TestPrimaryShipsEdits(t *testing.T) {
	p, tr := newTestPrimary(t, PrimaryOptions{})
	box := workload.BoxRegion(500, 500, 510, 510)
	if err := p.AddRegion("ship1", "Ship One", "#123456", box); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRegionGeometry("ship1", workload.BoxRegion(520, 520, 530, 530)); err != nil {
		t.Fatal(err)
	}
	if err := p.RenameRegion("ship1", "ship2"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveRegion("ship2"); err != nil {
		t.Fatal(err)
	}
	if got := p.Head(); got != 4 {
		t.Fatalf("head = %d, want 4", got)
	}
	recs, head, err := p.Records(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if head != 4 || len(recs) != 4 {
		t.Fatalf("Records: %d recs, head %d", len(recs), head)
	}
	wantOps := []wal.Op{wal.OpAdd, wal.OpSetGeometry, wal.OpRename, wal.OpRemove}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		edits, err := DecodeEdits(rec.Payload)
		if err != nil || len(edits) != 1 {
			t.Fatalf("record %d: edits=%d err=%v", i, len(edits), err)
		}
		if edits[0].Op != wantOps[i] {
			t.Fatalf("record %d op = %v, want %v", i, edits[0].Op, wantOps[i])
		}
	}
	// Each single edit bumps the store generation by exactly one, and the
	// record carries the post-apply generation — the ETag alignment anchor.
	for i := 1; i < len(recs); i++ {
		if recs[i].Gen != recs[i-1].Gen+1 {
			t.Fatalf("generation stride broken: rec %d gen %d after %d", i, recs[i].Gen, recs[i-1].Gen)
		}
	}
	if last := recs[len(recs)-1].Gen; last != tr.Store().Generation() {
		t.Fatalf("last record gen %d, store at %d", last, tr.Store().Generation())
	}
	// Failed edits ship nothing.
	if err := p.RemoveRegion("no-such-region"); err == nil {
		t.Fatal("removing a missing region succeeded")
	}
	if p.Head() != 4 {
		t.Fatalf("failed edit advanced head to %d", p.Head())
	}
}

func TestPrimaryBulkIsOneRecord(t *testing.T) {
	p, tr := newTestPrimary(t, PrimaryOptions{})
	genBefore := tr.Store().Generation()
	regions := make([]wal.Record, 8)
	for i := range regions {
		x := 600 + float64(i)*20
		regions[i] = wal.Record{Op: wal.OpAdd, ID: fmt.Sprintf("bulk%02d", i), Geometry: workload.BoxRegion(x, 600, x+10, 610)}
	}
	if err := p.Apply(regions); err != nil {
		t.Fatal(err)
	}
	if p.Head() != 1 {
		t.Fatalf("bulk ingest shipped %d records, want 1", p.Head())
	}
	recs, _, err := p.Records(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := DecodeEdits(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 8 {
		t.Fatalf("bulk record carries %d edits, want 8", len(edits))
	}
	// Like AddBulk, the whole batch bumps the generation once; the record's
	// gen is that post-batch value, so a replica applying it through
	// Tracked.Apply lands on the same generation.
	if got := tr.Store().Generation(); got != genBefore+1 {
		t.Fatalf("bulk bumped generation %d→%d, want one step", genBefore, got)
	}
	if recs[0].Gen != tr.Store().Generation() {
		t.Fatalf("bulk record gen %d, store at %d", recs[0].Gen, tr.Store().Generation())
	}
}

func TestPrimaryRetainAndTruncation(t *testing.T) {
	p, _ := newTestPrimary(t, PrimaryOptions{Retain: 4})
	for i := 0; i < 10; i++ {
		x := 700 + float64(i)*20
		if err := p.AddRegion(fmt.Sprintf("trim%02d", i), "", "", workload.BoxRegion(x, 700, x+10, 710)); err != nil {
			t.Fatal(err)
		}
	}
	// Only the last 4 records are retained: 7, 8, 9, 10.
	if _, _, err := p.Records(1, 100); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Records(1) = %v, want ErrTruncated", err)
	}
	if _, _, err := p.Records(6, 100); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Records(6) = %v, want ErrTruncated (floor is 6)", err)
	}
	recs, head, err := p.Records(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if head != 10 || len(recs) != 4 || recs[0].Seq != 7 {
		t.Fatalf("Records(7): %d recs from %d, head %d", len(recs), recs[0].Seq, head)
	}
	// max caps the batch; a from past the head returns an empty batch.
	recs, _, err = p.Records(7, 2)
	if err != nil || len(recs) != 2 {
		t.Fatalf("Records(7, max 2): %d recs, err %v", len(recs), err)
	}
	recs, _, err = p.Records(11, 100)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Records(11): %d recs, err %v", len(recs), err)
	}
}

func TestPrimaryWaitLongPoll(t *testing.T) {
	p, _ := newTestPrimary(t, PrimaryOptions{})
	// Records already past `after`: Wait returns immediately.
	if err := p.AddRegion("wait1", "", "", workload.BoxRegion(800, 800, 810, 810)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p.Wait(context.Background(), 0, 5*time.Second)
	if time.Since(start) > time.Second {
		t.Fatal("Wait blocked although records were available")
	}
	// Caught up: Wait blocks until the next append lands.
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Wait(context.Background(), 1, 10*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned before any new record")
	default:
	}
	if err := p.AddRegion("wait2", "", "", workload.BoxRegion(820, 820, 830, 830)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not observe the append")
	}
	// Timeout expires without an append.
	start = time.Now()
	p.Wait(context.Background(), p.Head(), 30*time.Millisecond)
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("timeout Wait took %v", elapsed)
	}
}

func TestPrimarySnapshot(t *testing.T) {
	p, tr := newTestPrimary(t, PrimaryOptions{Pct: true})
	if err := p.AddRegion("snap1", "Snap", "#00ff00", workload.BoxRegion(900, 900, 910, 910)); err != nil {
		t.Fatal(err)
	}
	data, seq, gen, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != p.Head() || gen != tr.Store().Generation() {
		t.Fatalf("snapshot coordinates seq=%d gen=%d, head=%d storeGen=%d",
			seq, gen, p.Head(), tr.Store().Generation())
	}
	img, err := persist.DecodeValidSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Regions) != 12 { // Greece's 11 + snap1
		t.Fatalf("snapshot holds %d regions, want 12", len(img.Regions))
	}
	if img.FindRegion("snap1") == nil {
		t.Fatal("snapshot missing the added region")
	}
	if len(img.Relations) != 0 {
		t.Fatalf("snapshot carries %d relations, want regions only", len(img.Relations))
	}
	// A replica built from it reproduces the primary's relations.
	seeded, err := config.Track(img, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer seeded.Close()
	wantRel, err := tr.Store().Relation("snap1", "attica")
	if err != nil {
		t.Fatal(err)
	}
	gotRel, err := seeded.Store().Relation("snap1", "attica")
	if err != nil {
		t.Fatal(err)
	}
	if wantRel != gotRel {
		t.Fatalf("seeded relation %v, primary %v", gotRel, wantRel)
	}
}

var _ Editor = (*Primary)(nil) // a Primary chains as another Primary's editor
