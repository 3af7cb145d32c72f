package persist

import (
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// TestBulkAddRegions drives the durable bulk-ingest path end to end: one
// BulkAddRegions call must cost one WAL fsync and one store edit
// (BulkBatches == 1), and a recovery from the resulting log
// must replay the run back through the bulk path, reproducing the exact
// store state.
func TestBulkAddRegions(t *testing.T) {
	dir := t.TempDir()
	seedWorld := workload.New(1).Scatter(4, 8)
	s := openForTest(t, dir, buildImage(t, seedWorld))

	const k = 150
	window := geom.Rect{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}
	world := workload.New(2).Zipf(window, k, 256)
	bulk := make([]config.BulkRegion, k)
	for i, g := range world {
		bulk[i] = config.BulkRegion{ID: fmt.Sprintf("z%03d", i), Name: fmt.Sprintf("Zipf %d", i), Geometry: g}
	}
	preFsyncs := s.Status().WAL.Fsyncs
	if err := s.BulkAddRegions(bulk); err != nil {
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

// TestBulkAddRegionsRejected checks a failing batch leaves store and WAL
// untouched.
func TestBulkAddRegionsRejected(t *testing.T) {
	dir := t.TempDir()
	s := openForTest(t, dir, buildImage(t, workload.New(3).Scatter(3, 8)))
	defer s.Close()
	before := s.Status()
	bulk := []config.BulkRegion{
		{ID: "x", Geometry: workload.BoxRegion(0, 0, 1, 1)},
		{ID: "r000", Geometry: workload.BoxRegion(2, 2, 3, 3)}, // duplicate of seed id
	}
	if err := s.BulkAddRegions(bulk); err == nil {
		t.Fatal("duplicate id accepted")
	}
	after := s.Status()
	if after.WAL.Records != before.WAL.Records {
		t.Error("rejected batch reached the WAL")
	}
	if s.Tracked().Store().Len() != 3 {
		t.Error("rejected batch mutated the store")
	}
	if err := s.BulkAddRegions(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}
