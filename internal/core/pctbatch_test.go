package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// clusterWorkload builds n named regions packed into overlapping groups —
// the adversarial case for the percent fast path, since intra-group boxes
// straddle each other's grid lines.
func clusterWorkload(seed int64, n int) []NamedRegion {
	g := workload.New(seed)
	clustered := g.Cluster(n, maxIntTest(1, n/8), 8)
	out := make([]NamedRegion, n)
	for i, r := range clustered {
		out[i] = NamedRegion{Name: fmt.Sprintf("c%03d", i), Region: r}
	}
	return out
}

func maxIntTest(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// naivePairsPct computes the canonical answer with the pairwise paper
// transcription over name-sorted regions — the reference the batch engine
// must reproduce.
func naivePairsPct(t *testing.T, regions []NamedRegion) []PairPercent {
	t.Helper()
	sorted := append([]NamedRegion{}, regions...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].Name < sorted[i].Name {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var out []PairPercent
	for _, a := range sorted {
		for _, b := range sorted {
			if a.Name == b.Name {
				continue
			}
			m, areas, _, err := paperCDRPct(a.Region, b.Region)
			if err != nil {
				t.Fatalf("naive %s vs %s: %v", a.Name, b.Name, err)
			}
			out = append(out, PairPercent{Primary: a.Name, Reference: b.Name, Matrix: m, Areas: areas})
		}
	}
	return out
}

func pairsPctEqual(t *testing.T, label string, got, want []PairPercent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Primary != w.Primary || g.Reference != w.Reference {
			t.Fatalf("%s: pair %d is (%s,%s), want (%s,%s)", label, i, g.Primary, g.Reference, w.Primary, w.Reference)
		}
		for _, tile := range Tiles() {
			if !areaClose(g.Areas[tile], w.Areas[tile]) || !pctClose(g.Matrix.Get(tile), w.Matrix.Get(tile)) {
				t.Fatalf("%s: pair %s vs %s diverges at %v:\nareas %v vs %v\npcts %v vs %v",
					label, g.Primary, g.Reference, tile, g.Areas, w.Areas, g.Matrix, w.Matrix)
			}
		}
	}
}

// batchPct is BatchPct for tests that expect success: the pairs and the
// aggregated stats of one run.
func batchPct(t testing.TB, regions []NamedRegion, opt BatchOptions) ([]PairPercent, Stats) {
	t.Helper()
	res, err := BatchPct(context.Background(), regions, &opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs, res.Stats
}

// TestComputeAllPairsPctDifferential asserts the quantitative batch engine
// reproduces the pairwise transcription on scatter and clustered workloads, for
// every worker count, with and without pruning.
func TestComputeAllPairsPctDifferential(t *testing.T) {
	workloads := []struct {
		name    string
		regions []NamedRegion
	}{
		{"scatter", batchWorkload(20040314, 30)},
		{"cluster", clusterWorkload(99, 24)},
	}
	for _, w := range workloads {
		want := naivePairsPct(t, w.regions)
		for _, workers := range []int{1, 2, 4, 0} {
			for _, noPrune := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/noPrune=%v", w.name, workers, noPrune)
				got, st := batchPct(t, w.regions, BatchOptions{Workers: workers, NoPrune: noPrune})
				pairsPctEqual(t, label, got, want)
				if noPrune && st.PrunePctTile+st.PrunePctPoly != 0 {
					t.Errorf("%s: NoPrune recorded prune hits: %+v", label, st)
				}
			}
		}
		// Sequential and parallel entry points are bitwise identical.
		seq, _ := batchPct(t, w.regions, BatchOptions{Workers: 1})
		par, _ := batchPct(t, w.regions, BatchOptions{})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: parallel output differs from sequential", w.name)
		}
	}
}

// TestPctFastPathHitRate asserts the scatter workload actually exercises the
// cached-area fast path (that is the point of the optimisation) while the
// full path still runs for straddling pairs.
func TestPctFastPathHitRate(t *testing.T) {
	regions := batchWorkload(7, 40)
	_, st := batchPct(t, regions, BatchOptions{Workers: 1})
	if st.PrunePctTile == 0 {
		t.Error("scatter workload should hit the single-tile percent fast path")
	}
	if st.EdgesIn == 0 {
		t.Error("some pairs should still take the full quantitative path")
	}
	t.Logf("stats: %+v", st)
}

// TestRelatePctZeroAllocs verifies the steady RelatePct path performs zero
// heap allocations, on both the fast path and the full edge-splitting path.
func TestRelatePctZeroAllocs(t *testing.T) {
	g := workload.New(3)
	// Overlapping pair: boxes straddle grid lines → full path.
	a, err := Prepare("a", geom.Rgn(g.StarPolygon(0, 0, 3, 6, 16)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare("b", geom.Rgn(g.StarPolygon(2, 1, 3, 6, 16)))
	if err != nil {
		t.Fatal(err)
	}
	// Distant pair: strictly disjoint boxes → cached-area fast path.
	far, err := Prepare("far", geom.Rgn(g.StarPolygon(100, 100, 1, 2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	if _, _, err := RelatePct(a, b, sc); err != nil { // warm the split buffer
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		primary *Prepared
	}{
		{"full", a},
		{"fast", far},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := RelatePct(tc.primary, b, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s path: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestComputeCDRPctDegenerateSentinel pins the error contract: empty and
// zero-area inputs report a wrapped ErrDegenerateRegion, detectable with
// errors.Is, and the batch engine mirrors it.
func TestComputeCDRPctDegenerateSentinel(t *testing.T) {
	ok := geom.Rgn(workload.Box(0, 0, 4, 4))
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(4, 4)))
	cases := []struct {
		name string
		a, b geom.Region
		msg  string
	}{
		{"empty primary", nil, ok, "primary region is empty"},
		{"empty reference", ok, nil, "reference region is empty"},
		{"zero-area primary", line, ok, "zero area"},
	}
	for _, tc := range cases {
		_, _, err := ComputeCDRPct(tc.a, tc.b)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !errors.Is(err, ErrDegenerateRegion) {
			t.Errorf("%s: %v does not wrap ErrDegenerateRegion", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: message %q lacks %q", tc.name, err, tc.msg)
		}
	}
	// Batch precheck: a zero-area region poisons the whole batch up front.
	regions := []NamedRegion{
		{Name: "ok", Region: ok},
		{Name: "line", Region: line},
	}
	if _, err := BatchPct(context.Background(), regions, &BatchOptions{Workers: 1}); !errors.Is(err, ErrDegenerateRegion) {
		t.Errorf("batch: %v does not wrap ErrDegenerateRegion", err)
	}
}
