// Package experiments holds the shared fixtures and measurement helpers for
// the reproduction's experiment suite (DESIGN.md §3, experiments E1–E15):
// the canonical shapes of the paper's Fig. 3 and Example 3, workload sweeps,
// and table-formatting utilities used by both the go-test benchmarks at the
// module root and the cdrbench command.
package experiments

import (
	"fmt"
	"strings"

	"cardirect/internal/core"
	"cardirect/internal/experiments/clip"
	"cardirect/internal/geom"
)

// RefRegion is the reference region used by the paper-figure fixtures: a
// rectangle whose mbb is [0,10]×[0,6].
func RefRegion() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(0, 6), geom.Pt(10, 6), geom.Pt(10, 0), geom.Pt(0, 0),
	))
}

// Fig3bSquare reproduces Fig. 3a/3b of the paper: a quadrangle (4 edges)
// spanning the four tiles B, W, NW, N around the north-west corner of
// mbb(b). Polygon clipping segments it into 4 quadrangles (16 edges);
// Compute-CDR introduces 8 edges.
func Fig3bSquare() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(-2, 8), geom.Pt(2, 8), geom.Pt(2, 4), geom.Pt(-2, 4),
	))
}

// Fig3cTriangle reproduces Fig. 3c, the paper's worst case: a triangle
// (3 edges) spanning all nine tiles. Polygon clipping produces 2 triangles,
// 6 quadrangles and 1 pentagon — 35 edges; Compute-CDR introduces 11.
func Fig3cTriangle() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(-8, -1), geom.Pt(5, 14), geom.Pt(18, -1),
	))
}

// Example3Quadrangle reproduces the quadrangle (N1 N2 N3 N4) of
// Examples 2–3: N1 ∈ W(b) (on the west line), N2, N3 ∈ NW(b), N4 ∈ NE(b);
// the relation is B:W:NW:N:NE:E, Compute-CDR yields 9 edges and clipping 19
// (2 triangles, 2 quadrangles, 1 pentagon).
func Example3Quadrangle() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(0, 2), geom.Pt(-4, 9), geom.Pt(-2, 7), geom.Pt(16, 8),
	))
}

// EdgeCounts measures how many edges each method ends with for a fixture.
type EdgeCounts struct {
	Name       string
	EdgesIn    int
	CDREdges   int // segments after Compute-CDR splitting
	ClipEdges  int // total edges over all clipped pieces
	ClipPieces int
	Relation   core.Relation
}

// MeasureEdgeCounts runs both methods over (a, b) and collects the counts.
func MeasureEdgeCounts(name string, a, b geom.Region) (EdgeCounts, error) {
	rel, st, err := core.ComputeCDRStats(a, b)
	if err != nil {
		return EdgeCounts{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	seg, err := clip.Segment(a, b)
	if err != nil {
		return EdgeCounts{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	pieces := 0
	for _, ps := range seg.Pieces {
		pieces += len(ps)
	}
	return EdgeCounts{
		Name:       name,
		EdgesIn:    st.EdgesIn,
		CDREdges:   st.EdgesOut,
		ClipEdges:  seg.Stats.EdgesOut,
		ClipPieces: pieces,
		Relation:   rel,
	}, nil
}

// Table formats rows with a header into an aligned plain-text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}
