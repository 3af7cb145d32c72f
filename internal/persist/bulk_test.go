package persist

import (
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// TestApplyBulk drives the durable bulk-ingest path end to end: one Apply
// of k OpAdd records must cost one WAL fsync and one store edit
// (BulkBatches == 1), and a recovery from the resulting log
// must replay the run back through the bulk path, reproducing the exact
// store state.
func TestApplyBulk(t *testing.T) {
	dir := t.TempDir()
	seedWorld := workload.New(1).Scatter(4, 8)
	s := openForTest(t, dir, buildImage(t, seedWorld))

	const k = 150
	window := geom.Rect{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}
	world := workload.New(2).Zipf(window, k, 256)
	bulk := make([]wal.Record, k)
	for i, g := range world {
		bulk[i] = wal.Record{Op: wal.OpAdd, ID: fmt.Sprintf("z%03d", i), Name: fmt.Sprintf("Zipf %d", i), Geometry: g}
	}
	preFsyncs := s.Status().WAL.Fsyncs
	if err := s.Apply(bulk); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if got := st.WAL.Fsyncs - preFsyncs; got != 1 {
		t.Errorf("bulk ingest of %d regions cost %d fsyncs, want 1", k, got)
	}
	if st.WAL.Records != int64(k) {
		t.Errorf("WAL.Records = %d, want %d", st.WAL.Records, k)
	}
	coreStats := s.Tracked().Store().Stats()
	if coreStats.BulkBatches != 1 {
		t.Errorf("BulkBatches = %d, want 1", coreStats.BulkBatches)
	}
	if coreStats.DeltaPairs != 0 {
		t.Errorf("DeltaPairs = %d, want 0 — the bulk path must not pay per-region deltas", coreStats.DeltaPairs)
	}
	wantPairs, wantPcts := statePairs(t, s.Tracked())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the logged OpAdd run through the bulk path again.
	r := openForTest(t, dir, nil)
	defer r.Close()
	rst := r.Status()
	if rst.ReplayedRecords != k {
		t.Errorf("replayed %d records, want %d", rst.ReplayedRecords, k)
	}
	if rst.SkippedRecords != 0 {
		t.Errorf("skipped %d records", rst.SkippedRecords)
	}
	recStats := r.Tracked().Store().Stats()
	if recStats.BulkBatches != 1 {
		t.Errorf("recovery BulkBatches = %d, want 1 (batched replay)", recStats.BulkBatches)
	}
	if recStats.DeltaPairs != 0 {
		t.Errorf("recovery DeltaPairs = %d, want 0 (batched replay)", recStats.DeltaPairs)
	}
	gotPairs, gotPcts := statePairs(t, r.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatal("recovered relations differ from pre-crash state")
	}
	// Percent matrices round-trip through the snapshot seed; the internal
	// tile areas are reconstructed, so compare the served matrices only.
	if len(gotPcts) != len(wantPcts) {
		t.Fatalf("pct pair count differs: %d vs %d", len(gotPcts), len(wantPcts))
	}
	for i := range gotPcts {
		if gotPcts[i].Primary != wantPcts[i].Primary ||
			gotPcts[i].Reference != wantPcts[i].Reference ||
			gotPcts[i].Matrix != wantPcts[i].Matrix {
			t.Fatalf("pct pair %d differs", i)
		}
	}
}

// TestApplyBulkRejected checks a refused batch — a duplicate id, or a
// batch that mixes ops — leaves store and WAL untouched, and that an
// empty edit is accepted and logs nothing.
func TestApplyBulkRejected(t *testing.T) {
	dir := t.TempDir()
	s := openForTest(t, dir, buildImage(t, workload.New(3).Scatter(3, 8)))
	defer s.Close()
	before := s.Status()
	for name, bulk := range map[string][]wal.Record{
		"duplicate of seed id": {
			{Op: wal.OpAdd, ID: "x", Geometry: workload.BoxRegion(0, 0, 1, 1)},
			{Op: wal.OpAdd, ID: "r000", Geometry: workload.BoxRegion(2, 2, 3, 3)},
		},
		"mixed ops": {
			{Op: wal.OpAdd, ID: "x", Geometry: workload.BoxRegion(0, 0, 1, 1)},
			{Op: wal.OpSetGeometry, ID: "y", Geometry: workload.BoxRegion(2, 2, 3, 3)},
		},
	} {
		if err := s.Apply(bulk); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if err := s.Apply(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	after := s.Status()
	if after.WAL.Records != before.WAL.Records {
		t.Error("rejected batch reached the WAL")
	}
	if s.Tracked().Store().Len() != 3 {
		t.Error("rejected batch mutated the store")
	}
}
