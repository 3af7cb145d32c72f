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
	"strings"
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
	r.Close()
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
	want := []string{"LOCK", "snapshot-00000002.bin", "wal-00000002.log"}
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
	// A higher generation that does not load and has no log: a rotation
	// that never finished.
	bad := filepath.Join(dir, binSnapshotName(2))
	if err := os.WriteFile(bad, []byte("CDSN half a snapshot"), 0o644); err != nil {
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
// directory whose only snapshot is unreadable, in either format. A
// refused Open leaves the directory to the next opener.
func TestOpenErrors(t *testing.T) {
	empty := t.TempDir()
	if _, err := Open(empty, nil, Options{}); err == nil {
		t.Error("Open of an empty dir without a seed succeeded")
	}
	for _, name := range []string{xmlSnapshotName(1), binSnapshotName(1)} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, nil, Options{}); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Open with only an unreadable %s: %v, want a refusal naming it", name, err)
		}
	}
	s := openForTest(t, empty, buildImage(t, workload.New(3).Scatter(2, 6)))
	s.Close()
}

// TestSecondOpenRefused: a data directory has one owner. While a store
// holds it, a second Open or Install of it fails with ErrLocked, naming the
// directory, and the first store's edits carry on and recover whole; once
// the owner closes, the directory opens again.
func TestSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(41)
	first := openForTest(t, dir, buildImage(t, gen.Scatter(4, 8)))
	adds := gen.Scatter(2, 8)
	if err := first.AddRegion("a0", "", "", adds[0]); err != nil {
		t.Fatal(err)
	}
	snap := EncodeSnapshotAt(buildImage(t, gen.Scatter(3, 8)), Position{Epoch: "e", Seq: 1, Gen: 1})
	for what, open := range map[string]func() (*Store, error){
		"Open":    func() (*Store, error) { return Open(dir, nil, Options{}) },
		"Install": func() (*Store, error) { return Install(dir, snap, Options{}) },
	} {
		second, err := open()
		if err == nil {
			second.Close()
			t.Fatalf("a second %s of a held directory succeeded", what)
		}
		if !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), dir) {
			t.Errorf("second %s: %v, want ErrLocked naming %s", what, err, dir)
		}
	}
	if err := first.AddRegion("a1", "", "", adds[1]); err != nil {
		t.Fatalf("the owner's edit after a refused open: %v", err)
	}
	if _, err := first.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want, _ := statePairs(t, first.Tracked())
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	r := openForTest(t, dir, nil)
	defer r.Close()
	if got, _ := statePairs(t, r.Tracked()); r.Tracked().Store().Len() != 6 || !reflect.DeepEqual(got, want) {
		t.Errorf("reopened after the owner closed: %d regions, want the owner's 6", r.Tracked().Store().Len())
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

// TestRecoveryLoadsLegacySnapshots: a data directory whose snapshot
// carries the n² relation payload, as the store wrote it before relations
// were computed on demand, recovers to a world that answers exactly what a
// from-scratch batch over the regions answers — the stored relations are
// dropped, not served — and the next rotation writes regions only.
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
	img := buildImage(t, regions)
	if err := img.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	// Poison the stored answers: serving them would show.
	for i := range img.Relations {
		img.Relations[i].Type, img.Relations[i].Pct = "B", "100;0;0;0;0;0;0;0;0"
	}
	legacy := EncodeSnapshot(img)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, binSnapshotName(1)), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openForTest(t, dir, nil)
	defer s.Close()
	if _, pcts := statePairs(t, s.Tracked()); !reflect.DeepEqual(pcts, want.Pairs) {
		t.Error("recovered world differs from a from-scratch BatchPct")
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes*4 > int64(len(legacy)) {
		t.Errorf("rotated snapshot is %d bytes, legacy one was %d — relations still stored?", info.Bytes, len(legacy))
	}
	data, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated.Relations) != 0 {
		t.Errorf("rotated snapshot carries %d relations", len(rotated.Relations))
	}
}

// TestRecoveryReadsParentLayout: a directory as releases that wrote an XML
// twin beside each binary snapshot left it — snapshot-<n>.xml,
// snapshot-<n>.bin and wal-<n>.log — recovers the same world from the
// binary file and its log, never reading the XML, and the twin goes with
// its generation at the next rotation. Snapshot and first-start
// initialisation write the binary snapshot, the log and LOCK only.
func TestRecoveryReadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(43)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(5, 8)))
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"LOCK", binSnapshotName(1), walName(1)}) {
		t.Fatalf("first start wrote %v", got)
	}
	if err := s.AddRegion("x", "", "", gen.Scatter(1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	want, _ := statePairs(t, s.Tracked())
	s.Close()
	// The twins: the live generation's, and a retired one a crashed
	// rotation left. Garbage, so that reading either would show.
	for _, seq := range []uint64{0, 1} {
		if err := os.WriteFile(filepath.Join(dir, xmlSnapshotName(seq)), []byte("<Image"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	if got, _ := statePairs(t, r.Tracked()); !reflect.DeepEqual(got, want) || r.Status().ReplayedRecords != 1 {
		t.Fatalf("the parent's layout recovered a different world (%d records replayed)", r.Status().ReplayedRecords)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"LOCK", binSnapshotName(1), xmlSnapshotName(1), walName(1)}) {
		t.Fatalf("after recovery: %v, want the retired twin swept and the live one kept", got)
	}
	if _, err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"LOCK", binSnapshotName(2), walName(2)}) {
		t.Fatalf("after a rotation: %v, want generation 2's snapshot, log and LOCK only", got)
	}
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
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
