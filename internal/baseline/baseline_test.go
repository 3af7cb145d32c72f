package baseline

import (
	"math"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

func boxRegion(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	))
}

func TestCentroidConeEightWays(t *testing.T) {
	b := boxRegion(-1, -1, 1, 1)
	cases := []struct {
		dx, dy float64
		want   Direction
	}{
		{10, 0, DirE}, {10, 10, DirNE}, {0, 10, DirN}, {-10, 10, DirNW},
		{-10, 0, DirW}, {-10, -10, DirSW}, {0, -10, DirS}, {10, -10, DirSE},
	}
	for _, c := range cases {
		a := boxRegion(c.dx-1, c.dy-1, c.dx+1, c.dy+1)
		if got := CentroidCone(a, b, 0); got != c.want {
			t.Errorf("offset (%g,%g): got %v, want %v", c.dx, c.dy, got, c.want)
		}
	}
	if got := CentroidCone(b, b, 1e-9); got != DirSame {
		t.Errorf("self: got %v, want same", got)
	}
}

func TestCentroidConeSectorBoundaries(t *testing.T) {
	b := boxRegion(-1, -1, 1, 1)
	// 22.5° is the E/NE boundary; the NE sector is [22.5°, 67.5°).
	th := 22.5 * math.Pi / 180
	a := boxRegion(10*math.Cos(th)-0.0, 10*math.Sin(th)-0.0, 10*math.Cos(th)+2, 10*math.Sin(th)+2)
	// Slightly above the boundary lands in NE.
	got := CentroidCone(a.Translate(geom.Pt(0, 0.5)), b, 0)
	if got != DirNE {
		t.Errorf("above 22.5°: got %v, want NE", got)
	}
	// Slightly below lands in E.
	got = CentroidCone(a.Translate(geom.Pt(0, -2.5)), b, 0)
	if got != DirE {
		t.Errorf("below 22.5°: got %v, want E", got)
	}
}

func TestDirectionTileMapping(t *testing.T) {
	want := map[Direction]core.Tile{
		DirSame: core.TileB, DirN: core.TileN, DirNE: core.TileNE, DirE: core.TileE,
		DirSE: core.TileSE, DirS: core.TileS, DirSW: core.TileSW, DirW: core.TileW, DirNW: core.TileNW,
	}
	for d, tile := range want {
		if got := d.Tile(); got != tile {
			t.Errorf("%v.Tile() = %v, want %v", d, got, tile)
		}
	}
	if DirNE.String() != "NE" || DirSame.String() != "same" {
		t.Error("direction names wrong")
	}
}

func TestMBBModel(t *testing.T) {
	b := boxRegion(0, 0, 10, 6)
	// Bounding boxes coincide with the regions for boxes, so MBB matches
	// the exact model on box inputs.
	for _, tc := range []struct {
		a    geom.Region
		want string
	}{
		{boxRegion(2, 2, 8, 4), "B"},
		{boxRegion(-4, 7, -1, 9), "NW"},
		{boxRegion(-5, 1, 15, 5), "B:W:E"},
		{boxRegion(-10, -10, 20, 16), "B:S:SW:W:NW:N:NE:E:SE"},
	} {
		want, err := core.ParseRelation(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MBB(tc.a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MBB(%v) = %v, want %v", tc.a.BoundingBox(), got, want)
		}
	}
}

func TestMBBUpperApproximation(t *testing.T) {
	// An L-shaped region whose bounding box covers B but whose material
	// does not: the MBB model over-approximates.
	b := boxRegion(4, 4, 6, 6)
	l := geom.Rgn(geom.Poly(
		geom.Pt(0, 10), geom.Pt(1, 10), geom.Pt(1, 1), geom.Pt(10, 1),
		geom.Pt(10, 0), geom.Pt(0, 0),
	))
	exact, err := core.ComputeCDR(l, b)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := MBB(l, b)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Intersect(approx) != exact {
		t.Errorf("exact %v not subset of MBB %v", exact, approx)
	}
	if approx == exact {
		t.Error("expected a strict over-approximation for the L-shape")
	}
	if CompareMBB(approx, exact) != AgreeSubsumed {
		t.Errorf("agreement = %v, want subsumed", CompareMBB(approx, exact))
	}
}

func TestAgreementClassification(t *testing.T) {
	exact, _ := core.ParseRelation("NE:E")
	if got := CompareMBB(exact, exact); got != AgreeExact {
		t.Errorf("identical: %v", got)
	}
	bigger, _ := core.ParseRelation("B:NE:E")
	if got := CompareMBB(bigger, exact); got != AgreeSubsumed {
		t.Errorf("superset: %v", got)
	}
	other, _ := core.ParseRelation("W")
	if got := CompareMBB(other, exact); got != AgreeContradict {
		t.Errorf("disjoint: %v", got)
	}
	if got := CompareCone(DirNE, exact); got != AgreeSubsumed {
		t.Errorf("cone NE vs NE:E: %v", got)
	}
	if got := CompareCone(DirNE, core.NE); got != AgreeExact {
		t.Errorf("cone NE vs NE: %v", got)
	}
	if got := CompareCone(DirW, exact); got != AgreeContradict {
		t.Errorf("cone W vs NE:E: %v", got)
	}
	if AgreeExact.String() != "exact" || AgreeSubsumed.String() != "subsumed" || AgreeContradict.String() != "contradict" {
		t.Error("agreement names wrong")
	}
}

func TestMBBErrors(t *testing.T) {
	b := boxRegion(0, 0, 10, 6)
	if _, err := MBB(geom.Region{}, b); err == nil {
		t.Error("empty primary should error")
	}
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if _, err := MBB(b, line); err == nil {
		t.Error("degenerate reference should error")
	}
}
