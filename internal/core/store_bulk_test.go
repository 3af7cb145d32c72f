package core

import (
	"fmt"
	"testing"

	"cardirect/internal/geom"
)

func bulkSquare(i int) geom.Region {
	x := float64(i%25) * 3
	y := float64(i/25) * 3
	return geom.Rgn(geom.Poly(geom.Pt(x, y), geom.Pt(x, y+2), geom.Pt(x+2, y+2), geom.Pt(x+2, y)))
}

// TestStoreAddBulk is the bulk-ingest acceptance at the store level: one
// AddBulk of k regions must answer exactly as k per-region Adds would,
// as ONE edit (one generation bump, BulkBatches == 1).
func TestStoreAddBulk(t *testing.T) {
	const pre, k = 5, 120
	seedRegions := make([]NamedRegion, pre)
	for i := range seedRegions {
		seedRegions[i] = NamedRegion{Name: fmt.Sprintf("seed%02d", i), Region: bulkSquare(i)}
	}
	bulk := make([]NamedRegion, k)
	for i := range bulk {
		bulk[i] = NamedRegion{Name: fmt.Sprintf("bulk%03d", i), Region: bulkSquare(pre + i)}
	}

	s, err := NewRelationStore(seedRegions, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.Generation()
	if err := s.AddBulk(bulk); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen0+1 {
		t.Errorf("generation moved by %d, want 1 (one edit for the whole batch)", got-gen0)
	}
	st := s.Stats()
	if st.BulkBatches != 1 {
		t.Errorf("BulkBatches = %d, want 1", st.BulkBatches)
	}

	// Reference store: same regions through the per-region path.
	ref, err := NewRelationStore(seedRegions, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bulk {
		if err := ref.Add(r.Name, r.Region); err != nil {
			t.Fatal(err)
		}
	}
	wantPairs := ref.Pairs()
	gotPairs := s.Pairs()
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pair count %d != %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d: bulk %+v != delta %+v", i, gotPairs[i], wantPairs[i])
		}
	}
	wantPct, err := ref.PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	gotPct, err := s.PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPct {
		if gotPct[i].Matrix != wantPct[i].Matrix || gotPct[i].Areas != wantPct[i].Areas {
			t.Fatalf("pct pair %d differs", i)
		}
	}
}

// TestStoreAddBulkRejects checks validation leaves the store untouched.
func TestStoreAddBulkRejects(t *testing.T) {
	s, err := NewRelationStore([]NamedRegion{{Name: "a", Region: bulkSquare(0)}}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.Generation()
	cases := [][]NamedRegion{
		{{Name: "", Region: bulkSquare(1)}},
		{{Name: "a", Region: bulkSquare(1)}},                                     // exists
		{{Name: "b", Region: bulkSquare(1)}, {Name: "b", Region: bulkSquare(2)}}, // intra-batch dup
		{{Name: "b", Region: geom.Region{}}},                                     // degenerate
	}
	for i, c := range cases {
		if err := s.AddBulk(c); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if s.Len() != 1 || s.Generation() != gen0 {
		t.Error("failed batches mutated the store")
	}
	if err := s.AddBulk(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestStoreAddBulkIntoEmpty covers the n<2 growth path.
func TestStoreAddBulkIntoEmpty(t *testing.T) {
	s, err := NewRelationStore(nil, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bulk := make([]NamedRegion, 10)
	for i := range bulk {
		bulk[i] = NamedRegion{Name: fmt.Sprintf("r%02d", i), Region: bulkSquare(i)}
	}
	if err := s.AddBulk(bulk); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	rel, err := s.Relation("r00", "r01")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeCDR(bulkSquare(0), bulkSquare(1))
	if err != nil {
		t.Fatal(err)
	}
	if rel != want {
		t.Fatalf("Relation = %v, want %v", rel, want)
	}
}
