package core_test

// The two ablations of DESIGN.md §3 that take the paper transcription's
// split apart (Grid.SplitEdge, declared in transcription_test.go): an
// external test package, because the clipping baseline they compare
// against imports core.

import (
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/experiments/clip"
	"cardirect/internal/workload"
)

// TestAblationInteriorSideRule shows the tie-breaking rule is load-bearing:
// naive middle-column classification of on-line segments reports B:W where
// the definition demands W.
func TestAblationInteriorSideRule(t *testing.T) {
	b := workload.BoxRegion(0, 0, 10, 6)
	a := workload.BoxRegion(-3, 1, 0, 5) // shares the line x = 0 with mbb(b)
	grid, err := core.NewGrid(b.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	// Naive: classify split segments by midpoint only (ClassifyPoint).
	var naive core.Relation
	for _, p := range a.Clockwise() {
		for i := 0; i < p.NumEdges(); i++ {
			for _, s := range grid.SplitEdge(p.Edge(i), nil) {
				naive = naive.Union(core.Rel(grid.ClassifyPoint(s.Mid())))
			}
		}
	}
	exact, err := core.ComputeCDR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if exact != core.W {
		t.Fatalf("exact relation = %v, want W", exact)
	}
	if naive == exact {
		t.Error("naive midpoint classification should differ on shared-boundary input (it spuriously adds B)")
	}
	if !naive.Has(core.TileB) {
		t.Errorf("expected the naive result to contain the spurious B tile, got %v", naive)
	}
}

// BenchmarkAblationSinglePass quantifies what the nine scans cost clipping
// beyond its edge inflation: per-pass cost on identical input.
func BenchmarkAblationSinglePass(b *testing.B) {
	g := workload.New(20040314)
	c := g.ScalingSweep([]int{1024})[0]
	grid, err := core.NewGrid(c.B.BoundingBox())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("OnePassSplit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range c.A {
				for j := 0; j < p.NumEdges(); j++ {
					grid.SplitEdge(p.Edge(j), nil)
				}
			}
		}
	})
	b.Run("NineTileClip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := clip.Segment(c.A, c.B); err != nil {
				b.Fatal(err)
			}
		}
	})
}
