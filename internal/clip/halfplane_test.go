package clip

import (
	"math"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

func sq(minX, minY, maxX, maxY float64) geom.Polygon {
	return geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	)
}

func TestHalfPlaneContains(t *testing.T) {
	cases := []struct {
		h    HalfPlane
		in   geom.Point
		out  geom.Point
		edge geom.Point
	}{
		{XGE(2), geom.Pt(3, 0), geom.Pt(1, 0), geom.Pt(2, 5)},
		{XLE(2), geom.Pt(1, 0), geom.Pt(3, 0), geom.Pt(2, -5)},
		{YGE(1), geom.Pt(0, 2), geom.Pt(0, 0), geom.Pt(9, 1)},
		{YLE(1), geom.Pt(0, 0), geom.Pt(0, 2), geom.Pt(-9, 1)},
	}
	for i, c := range cases {
		if !c.h.Contains(c.in) {
			t.Errorf("case %d: inside point rejected", i)
		}
		if c.h.Contains(c.out) {
			t.Errorf("case %d: outside point accepted", i)
		}
		if !c.h.Contains(c.edge) {
			t.Errorf("case %d: boundary point rejected (half-planes are closed)", i)
		}
	}
}

func TestClipPolygonSquare(t *testing.T) {
	s := sq(0, 0, 4, 4)
	// Clip to x ≥ 2: right half.
	right := XGE(2).clipPolygonCounting(s, new(int))
	if got := right.Area(); got != 8 {
		t.Errorf("right half area = %v, want 8", got)
	}
	for _, v := range right {
		if v.X < 2 {
			t.Errorf("vertex %v outside clip", v)
		}
	}
	// Clip away entirely.
	if got := XGE(10).clipPolygonCounting(s, new(int)); got != nil {
		t.Errorf("fully-outside clip = %v, want nil", got)
	}
	// Clip that keeps everything returns the full area.
	if got := XGE(-10).clipPolygonCounting(s, new(int)); got.Area() != 16 {
		t.Errorf("no-op clip area = %v", got.Area())
	}
	// Clip exactly on an edge keeps the polygon.
	if got := XGE(0).clipPolygonCounting(s, new(int)); got.Area() != 16 {
		t.Errorf("edge clip area = %v", got.Area())
	}
}

func TestClipPolygonTriangleSnap(t *testing.T) {
	tri := geom.Poly(geom.Pt(0, 0), geom.Pt(2, 4), geom.Pt(4, 0))
	half := XLE(2).clipPolygonCounting(tri.Clockwise(), new(int))
	if math.Abs(half.Area()-4) > 1e-12 {
		t.Errorf("half triangle area = %v, want 4", half.Area())
	}
	// Crossing points must sit exactly on x = 2 (snapping).
	onLine := 0
	for _, v := range half {
		if v.X == 2 {
			onLine++
		}
	}
	if onLine < 2 {
		t.Errorf("expected ≥2 vertices exactly on the clip line, got %d", onLine)
	}
}

func TestClipPolygonAll(t *testing.T) {
	s := sq(0, 0, 10, 10)
	piece := clipPolygonAllCounting(s, []HalfPlane{XGE(2), XLE(6), YGE(1), YLE(9)}, new(int))
	if math.Abs(piece.Area()-32) > 1e-12 {
		t.Errorf("boxed clip area = %v, want 32", piece.Area())
	}
	if got := clipPolygonAllCounting(s, []HalfPlane{XGE(4), XLE(2)}, new(int)); got != nil {
		t.Errorf("empty intersection = %v", got)
	}
}

func TestTileHalfPlanes(t *testing.T) {
	g := core.Grid{M1: 0, M2: 10, L1: 0, L2: 6}
	counts := map[core.Tile]int{
		core.TileB: 4, core.TileS: 3, core.TileN: 3, core.TileW: 3, core.TileE: 3,
		core.TileSW: 2, core.TileSE: 2, core.TileNW: 2, core.TileNE: 2,
	}
	for tile, want := range counts {
		if got := len(TileHalfPlanes(g, tile)); got != want {
			t.Errorf("tile %v: %d half-planes, want %d", tile, got, want)
		}
	}
	// Tile membership of witness points.
	witness := map[core.Tile]geom.Point{
		core.TileB: geom.Pt(5, 3), core.TileS: geom.Pt(5, -1), core.TileSW: geom.Pt(-1, -1),
		core.TileW: geom.Pt(-1, 3), core.TileNW: geom.Pt(-1, 7), core.TileN: geom.Pt(5, 7),
		core.TileNE: geom.Pt(11, 7), core.TileE: geom.Pt(11, 3), core.TileSE: geom.Pt(11, -1),
	}
	for tile, p := range witness {
		for _, h := range TileHalfPlanes(g, tile) {
			if !h.Contains(p) {
				t.Errorf("tile %v: witness %v rejected", tile, p)
			}
		}
		// The witness must be rejected by at least one half-plane of every
		// other tile.
		for _, other := range core.Tiles() {
			if other == tile {
				continue
			}
			in := true
			for _, h := range TileHalfPlanes(g, other) {
				if !h.Contains(p) {
					in = false
					break
				}
			}
			if in {
				t.Errorf("witness of %v also inside tile %v", tile, other)
			}
		}
	}
}

func TestClipToTilePartition(t *testing.T) {
	g := core.Grid{M1: 0, M2: 10, L1: 0, L2: 6}
	// A polygon spanning many tiles: its clipped areas must sum to the
	// original area (tiles partition the plane up to measure zero).
	p := geom.Poly(geom.Pt(-5, 9), geom.Pt(14, 11), geom.Pt(12, -3), geom.Pt(-3, -4)).Clockwise()
	var sum float64
	for _, tile := range core.Tiles() {
		piece := clipPolygonAllCounting(p, TileHalfPlanes(g, tile), new(int))
		sum += piece.Area()
	}
	if math.Abs(sum-p.Area()) > 1e-9 {
		t.Errorf("clipped areas sum %v != polygon area %v", sum, p.Area())
	}
}

func TestFig3bEdgeInflation(t *testing.T) {
	// Fig. 3 of the paper: a quadrangle over the four tiles B, W, NW, N is
	// segmented by clipping into 4 quadrangles — 16 edges from the original 4.
	g := core.Grid{M1: 0, M2: 10, L1: 0, L2: 6}
	// Square centred on the NW corner (0,6) of the box, spanning the tiles
	// B, W, NW and N.
	quad := sq(-2, 4, 2, 8)
	edges := 0
	pieces := 0
	for _, tile := range core.Tiles() {
		piece := clipPolygonAllCounting(quad.Clockwise(), TileHalfPlanes(g, tile), new(int))
		if piece.Area() > 0 {
			pieces++
			edges += piece.NumEdges()
		}
	}
	if pieces != 4 {
		t.Errorf("pieces = %d, want 4", pieces)
	}
	if edges != 16 {
		t.Errorf("clipped edges = %d, want 16 (paper's Fig. 3b count)", edges)
	}
}
