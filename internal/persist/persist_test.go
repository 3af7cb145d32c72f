package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// buildImage assembles a document from generated regions, ids r000, r001, …
func buildImage(t testing.TB, regions []geom.Region) *config.Image {
	t.Helper()
	img := &config.Image{Name: "persist-test", File: "persist.png"}
	for i, g := range regions {
		id := fmt.Sprintf("r%03d", i)
		reg := config.Region{ID: id, Name: "Region " + id}
		reg.SetGeometry(g)
		img.Regions = append(img.Regions, reg)
	}
	return img
}

func openForTest(t testing.TB, dir string, seed *config.Image) *Store {
	t.Helper()
	s, err := Open(dir, seed, Options{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// statePairs captures the comparable store state: qualitative and percent
// matrices for every ordered pair.
func statePairs(t testing.TB, tr *config.Tracked) ([]core.PairRelation, []core.PairPercent) {
	t.Helper()
	pairs := tr.Store().Pairs()
	pcts, err := tr.Store().PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	return pairs, pcts
}

// TestFreshInitAndRecovery opens a fresh directory, edits through the
// store, crashes (Close) and recovers; the recovered state must match a
// from-scratch computation over the same final document.
func TestFreshInitAndRecovery(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(7)
	regions := gen.Scatter(10, 10)
	extra := gen.Scatter(3, 8)

	s := openForTest(t, dir, buildImage(t, regions))
	if err := s.AddRegion("zzz", "Added", "#123456", extra[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRegionGeometry("r003", extra[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameRegion("r005", "renamed"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRegion("r007"); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantPcts := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRegion("after-close", "x", "", extra[2]); err == nil {
		t.Fatal("edit after Close succeeded")
	}

	// Recover without a seed: the directory is the source of truth.
	r := openForTest(t, dir, nil)
	defer r.Close()
	st := r.Status()
	if st.ReplayedRecords != 4 {
		t.Errorf("replayed %d records, want 4", st.ReplayedRecords)
	}
	if st.Corruption != "" {
		t.Errorf("clean log reported corruption: %s", st.Corruption)
	}
	if st.RecoveryNs <= 0 {
		t.Errorf("recovery_ns = %d, want > 0", st.RecoveryNs)
	}
	gotPairs, gotPcts := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("recovered relations differ from pre-crash state")
	}
	// Percent matrices round-trip bit-exactly through the snapshot; the
	// internal tile areas are reconstructed from them, so compare the
	// served values, not the raw cell structs.
	if len(gotPcts) != len(wantPcts) {
		t.Fatalf("pct pair count differs: %d vs %d", len(gotPcts), len(wantPcts))
	}
	for i := range gotPcts {
		if gotPcts[i].Primary != wantPcts[i].Primary ||
			gotPcts[i].Reference != wantPcts[i].Reference ||
			gotPcts[i].Matrix != wantPcts[i].Matrix {
			t.Fatalf("pct pair %d differs: %+v vs %+v", i, gotPcts[i], wantPcts[i])
		}
	}

	// A seed given alongside an initialised directory is ignored.
	r2 := openForTest(t, t.TempDir(), buildImage(t, regions[:2]))
	r2.Close()
	r3 := openForTest(t, dir, buildImage(t, regions[:2]))
	defer r3.Close()
	if got := r3.Tracked().Store().Len(); got != len(wantPairsRegions(wantPairs)) {
		t.Errorf("seed overrode durable state: %d regions", got)
	}
}

// TestRefusedEditLogsNothing: an edit the tracked store refuses — the
// self-rename of a region that does not exist included — appends no record.
func TestRefusedEditLogsNothing(t *testing.T) {
	s := openForTest(t, t.TempDir(), buildImage(t, workload.New(3).Scatter(4, 6)))
	defer s.Close()
	before := s.Status().WAL.Records
	for name, err := range map[string]error{
		"rename ghost→ghost": s.RenameRegion("ghost", "ghost"),
		"rename ghost→x":     s.RenameRegion("ghost", "x"),
		"remove ghost":       s.RemoveRegion("ghost"),
	} {
		if !errors.Is(err, config.ErrUnknownRegion) {
			t.Errorf("%s: err = %v, want ErrUnknownRegion", name, err)
		}
	}
	if after := s.Status().WAL.Records; after != before {
		t.Errorf("refused edits appended %d WAL record(s)", after-before)
	}
}

// TestIntervalSyncAfterLastEdit: under wal.SyncInterval an edit no other
// append follows still reaches stable storage within the interval, a synced
// log is not synced again, and the timer of a log that Snapshot rotated out
// or Close closed does nothing (syncing a closed file would latch an error).
func TestIntervalSyncAfterLastEdit(t *testing.T) {
	const interval = 20 * time.Millisecond
	s, err := Open(t.TempDir(), buildImage(t, workload.New(5).Scatter(4, 6)),
		Options{Sync: wal.Options{Policy: wal.SyncInterval, Interval: interval}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	moved := [2]geom.Region{workload.BoxRegion(500, 500, 510, 510), workload.BoxRegion(600, 500, 610, 510)}
	before := s.Status().WAL.Fsyncs
	if err := s.SetRegionGeometry("r001", moved[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Status().WAL.Fsyncs == before; time.Sleep(interval / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("the edit is still unsynced 5 s after its append under a %v interval: %+v", interval, s.Status().WAL)
		}
	}
	time.Sleep(3 * interval)
	if got := s.Status().WAL.Fsyncs; got != before+1 {
		t.Errorf("fsyncs = %d after one edit and a quiet log, want %d", got, before+1)
	}

	if err := s.SetRegionGeometry("r001", moved[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * interval)
	if st := s.Status(); st.Err != "" {
		t.Fatalf("the rotated-out log's timer latched an error: %s", st.Err)
	}
	if err := s.SetRegionGeometry("r001", moved[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed := s.Status()
	time.Sleep(3 * interval)
	if st := s.Status(); st.WAL != closed.WAL || st.Err != closed.Err {
		t.Errorf("a timer acted on a rotated or closed log: %+v, then %+v", closed, st)
	}
}

// wantPairsRegions derives the region set size from an all-pairs list.
func wantPairsRegions(pairs []core.PairRelation) map[string]bool {
	set := make(map[string]bool)
	for _, p := range pairs {
		set[p.Primary] = true
		set[p.Reference] = true
	}
	return set
}

// TestSnapshotRotation checks Snapshot advances the generation, truncates
// the log, retires the previous generation's files, and that recovery from
// the rotated state replays nothing.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(11)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(6, 8)))
	if err := s.AddRegion("extra", "Extra", "", gen.Scatter(1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || info.Regions != 7 || info.Bytes <= 0 {
		t.Fatalf("unexpected snapshot info: %+v", info)
	}
	wantPairs, _ := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"snapshot-00000002.bin", "snapshot-00000002.xml", "wal-00000002.log"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after rotation: %v, want %v", names, want)
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	st := r.Status()
	if st.Seq != 2 || st.ReplayedRecords != 0 {
		t.Fatalf("recovery after rotation: %+v", st)
	}
	gotPairs, _ := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("state diverged across rotation + recovery")
	}
}

// TestRecoveryDiscardsTornTail truncates and bit-flips the live log; in
// every case recovery must succeed with a prefix of the edits and report
// the corruption, never fail.
func TestRecoveryDiscardsTornTail(t *testing.T) {
	gen := workload.New(13)
	base := gen.Scatter(5, 8)
	adds := gen.Scatter(4, 8)

	build := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		s := openForTest(t, dir, buildImage(t, base))
		for i, g := range adds {
			if err := s.AddRegion(fmt.Sprintf("add%d", i), "A", "", g); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, "wal-00000001.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return dir, data
	}

	t.Run("truncated", func(t *testing.T) {
		dir, data := build(t)
		logPath := filepath.Join(dir, "wal-00000001.log")
		if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openForTest(t, dir, nil)
		defer r.Close()
		st := r.Status()
		if st.Corruption == "" {
			t.Error("torn tail not reported")
		}
		if st.ReplayedRecords != len(adds)-1 {
			t.Errorf("replayed %d, want %d", st.ReplayedRecords, len(adds)-1)
		}
		// The truncated log must be appendable again after recovery.
		if err := r.AddRegion("post", "P", "", adds[0]); err != nil {
			t.Fatalf("append after torn-tail recovery: %v", err)
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		dir, data := build(t)
		logPath := filepath.Join(dir, "wal-00000001.log")
		flipped := bytes.Clone(data)
		flipped[len(flipped)-5] ^= 0x10
		if err := os.WriteFile(logPath, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		r := openForTest(t, dir, nil)
		defer r.Close()
		st := r.Status()
		if st.Corruption == "" {
			t.Error("bit flip not reported")
		}
		if st.ReplayedRecords >= len(adds) {
			t.Errorf("replayed %d records from a damaged log of %d", st.ReplayedRecords, len(adds))
		}
	})
}

// TestRecoverySkipsUnreadableSnapshot plants a garbage higher-seq snapshot;
// recovery must fall back to the intact generation, then clean up.
func TestRecoverySkipsUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(17)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(5, 8)))
	wantPairs, _ := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A rotation that crashed after renaming the snapshot but before
	// anything else: half-written XML at a higher generation.
	bad := filepath.Join(dir, "snapshot-00000002.xml")
	if err := os.WriteFile(bad, []byte("<Image name=\"x\""), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snapshot-12345.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	if got := r.Status().Seq; got != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", got)
	}
	gotPairs, _ := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("fallback recovery lost state")
	}
	for _, stale := range []string{bad, tmp} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("stale file survived recovery: %s", stale)
		}
	}
}

// TestOpenErrors covers the refusal cases: no snapshot and no seed, and a
// directory whose only snapshot is unreadable.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, Options{}); err == nil {
		t.Error("Open of an empty dir without a seed succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000001.xml"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, Options{}); err == nil {
		t.Error("Open with only an unreadable snapshot succeeded")
	}
}

// TestSnapshotRefusesEmptyWorld: the DTD requires at least one region, so
// snapshotting an emptied configuration must fail cleanly.
func TestSnapshotRefusesEmptyWorld(t *testing.T) {
	gen := workload.New(19)
	s := openForTest(t, t.TempDir(), buildImage(t, gen.Scatter(1, 8)))
	defer s.Close()
	if err := s.RemoveRegion("r000"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of an empty configuration succeeded")
	}
}

// legacyDir writes generation 1 the way the store did before relations
// were computed on demand: both snapshot formats carry the full n²
// Relation list with pct attributes, and there is no log yet.
func legacyDir(t *testing.T, img *config.Image) string {
	t.Helper()
	if err := img.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	xml, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{snapshotName(1): xml, binSnapshotName(1): EncodeSnapshot(img)} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoveryLoadsLegacySnapshots: a data directory whose snapshots carry
// the n² relation payload recovers, from either format, to a world that
// answers exactly what a from-scratch batch over the regions answers — the
// stored relations are dropped, not served — and the next rotation writes
// regions only.
func TestRecoveryLoadsLegacySnapshots(t *testing.T) {
	regions := workload.New(23).Cluster(40, 5, 12)
	named := make([]core.NamedRegion, len(regions))
	for i, g := range regions {
		named[i] = core.NamedRegion{Name: fmt.Sprintf("r%03d", i), Region: g}
	}
	want, err := core.BatchPct(context.Background(), named, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"binary", "xml"} {
		img := buildImage(t, regions)
		dir := legacyDir(t, img)
		// Poison the stored answers: serving them would show.
		for i := range img.Relations {
			img.Relations[i].Type, img.Relations[i].Pct = "B", "100;0;0;0;0;0;0;0;0"
		}
		xml, err := img.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if from == "xml" {
			if err := os.Remove(filepath.Join(dir, binSnapshotName(1))); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), xml, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(filepath.Join(dir, binSnapshotName(1)), EncodeSnapshot(img), 0o644); err != nil {
			t.Fatal(err)
		}
		legacyBytes := len(xml)

		s := openForTest(t, dir, nil)
		if got := s.Status().RecoveredFrom; got != from {
			t.Errorf("recovered_from = %q, want %q", got, from)
		}
		_, pcts := statePairs(t, s.Tracked())
		if !reflect.DeepEqual(pcts, want.Pairs) {
			t.Errorf("%s: recovered world differs from a from-scratch BatchPct", from)
		}
		info, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if info.Bytes*4 > int64(legacyBytes) {
			t.Errorf("%s: rotated snapshot is %d bytes, legacy one was %d — relations still stored?", from, info.Bytes, legacyBytes)
		}
		data, err := os.ReadFile(filepath.Join(dir, binSnapshotName(info.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		rotated, err := DecodeValidSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(rotated.Relations) != 0 {
			t.Errorf("%s: rotated snapshot carries %d relations", from, len(rotated.Relations))
		}
		s.Close()
	}
}

// TestSnapshotSizeIsLinear: the bytes a snapshot spends per region do not
// grow with the number of regions.
func TestSnapshotSizeIsLinear(t *testing.T) {
	perRegion := func(n int) float64 {
		s := openForTest(t, t.TempDir(), buildImage(t, workload.New(31).Scatter(n, 10)))
		defer s.Close()
		info, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return float64(info.Bytes) / float64(info.Regions)
	}
	small, large := perRegion(50), perRegion(400)
	if large > small*1.1 {
		t.Errorf("snapshot bytes per region grew from %.0f (n=50) to %.0f (n=400)", small, large)
	}
}

// TestSnapshotDoesNotBlockReads: Snapshot() of a 600-region world runs to
// completion while one read is held open across it and another goroutine
// keeps answering — it takes the tracked read lock, so no read ever waits
// for a snapshot. (Needing the write lock would deadlock on the held read.)
func TestSnapshotDoesNotBlockReads(t *testing.T) {
	s := openForTest(t, t.TempDir(), buildImage(t, workload.New(37).Scatter(600, 10)))
	defer s.Close()
	tr := s.Tracked()

	held, release := make(chan struct{}), make(chan struct{})
	go tr.View(func(*config.Image) error {
		close(held)
		<-release
		return nil
	})
	<-held
	defer close(release)

	var reads atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := tr.View(func(*config.Image) error {
				_, err := tr.Store().Relation("r000", "r001")
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
			reads.Add(1)
		}
	}()
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	before := reads.Load()
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	during := reads.Load() - before
	close(stop)
	<-done
	t.Logf("snapshot took %v with %d reads beside it", time.Duration(info.DurationNs), during)
	if during == 0 {
		t.Error("no read completed while the snapshot ran")
	}
}
