package core

import (
	"math"
	"testing"
	"testing/quick"

	"cardirect/internal/geom"
)

func TestComputeCDRPctFig1c(t *testing.T) {
	// Fig. 1c: region c is 50% northeast and 50% east of b.
	b := refB() // mbb [0,10]×[0,6]
	c := box(12, 2, 14, 10)
	m, areas, err := ComputeCDRPct(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Get(TileNE)-50) > 1e-9 || math.Abs(m.Get(TileE)-50) > 1e-9 {
		t.Errorf("NE/E = %v/%v, want 50/50", m.Get(TileNE), m.Get(TileE))
	}
	if math.Abs(m.Sum()-100) > 1e-9 {
		t.Errorf("matrix sum = %v", m.Sum())
	}
	if math.Abs(areas.Total()-c.Area()) > 1e-9 {
		t.Errorf("total area = %v, want %v", areas.Total(), c.Area())
	}
}

func TestComputeCDRPctSingleTile(t *testing.T) {
	b := refB()
	for _, tc := range []struct {
		a    geom.Region
		tile Tile
	}{
		{box(2, 2, 8, 4), TileB},
		{box(2, -4, 8, -1), TileS},
		{box(-4, -4, -1, -1), TileSW},
		{box(-4, 2, -1, 4), TileW},
		{box(-4, 7, -1, 9), TileNW},
		{box(2, 7, 8, 9), TileN},
		{box(11, 7, 13, 9), TileNE},
		{box(11, 2, 13, 4), TileE},
		{box(11, -4, 13, -1), TileSE},
	} {
		m, areas, err := ComputeCDRPct(tc.a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Get(tc.tile)-100) > 1e-9 {
			t.Errorf("tile %v pct = %v, want 100", tc.tile, m.Get(tc.tile))
		}
		if math.Abs(areas[tc.tile]-tc.a.Area()) > 1e-9 {
			t.Errorf("tile %v area = %v, want %v", tc.tile, areas[tc.tile], tc.a.Area())
		}
	}
}

func TestComputeCDRPctKnownSplit(t *testing.T) {
	b := refB()
	// Box straddling W|B|E: x from −5 to 15 at y∈[1,5] → areas 20/40/20,
	// i.e. 25%/50%/25%.
	a := box(-5, 1, 15, 5)
	m, _, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Get(TileW)-25) > 1e-9 || math.Abs(m.Get(TileB)-50) > 1e-9 || math.Abs(m.Get(TileE)-25) > 1e-9 {
		t.Errorf("W/B/E = %v/%v/%v, want 25/50/25", m.Get(TileW), m.Get(TileB), m.Get(TileE))
	}
	// Box straddling all nine tiles: x ∈ [−10, 20], y ∈ [−6, 12].
	// Column widths 10/10/10, row heights 6/6/6 → every tile that shares a
	// row/col gets its exact share.
	a9 := box(-10, -6, 20, 12)
	m9, areas9, err := ComputeCDRPct(a9, b)
	if err != nil {
		t.Fatal(err)
	}
	wantArea := map[Tile]float64{
		TileSW: 60, TileS: 60, TileSE: 60,
		TileW: 60, TileB: 60, TileE: 60,
		TileNW: 60, TileN: 60, TileNE: 60,
	}
	for tile, w := range wantArea {
		if math.Abs(areas9[tile]-w) > 1e-9 {
			t.Errorf("tile %v area = %v, want %v", tile, areas9[tile], w)
		}
	}
	if math.Abs(m9.Sum()-100) > 1e-9 {
		t.Errorf("sum = %v", m9.Sum())
	}
}

func TestComputeCDRPctTriangle(t *testing.T) {
	b := refB()
	// Right triangle in the N/NE area: vertices (8,6), (8,10), (14,6),
	// clockwise: (8,6)→(8,10)→(14,6). Total area 12. The part east of
	// x=10: triangle cut at x=10 → sub-triangle with vertices (10,6),
	// (10, 8·…): line from (8,10) to (14,6): at x=10, y = 10 − (2/6)·4 =
	// 8.666…; area east = ½·4·(8.666…−6) = 5.333…; area in N = 12 − 5.333… = 6.666….
	a := geom.Rgn(geom.Poly(geom.Pt(8, 6), geom.Pt(8, 10), geom.Pt(14, 6)))
	_, areas, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eastArea := 0.5 * 4 * (10 - 6 - 4.0/3)
	if math.Abs(areas[TileNE]-eastArea) > 1e-9 {
		t.Errorf("NE area = %v, want %v", areas[TileNE], eastArea)
	}
	if math.Abs(areas[TileN]-(12-eastArea)) > 1e-9 {
		t.Errorf("N area = %v, want %v", areas[TileN], 12-eastArea)
	}
	if areas[TileB] > 1e-12 {
		t.Errorf("B area = %v, want 0 (triangle only touches the line)", areas[TileB])
	}
}

func TestComputeCDRPctBTileViaSubtraction(t *testing.T) {
	b := refB()
	// A box spanning B and N: y ∈ [3, 9] over x ∈ [2, 8] → B area 18, N 18.
	a := box(2, 3, 8, 9)
	_, areas, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(areas[TileB]-18) > 1e-9 || math.Abs(areas[TileN]-18) > 1e-9 {
		t.Errorf("B/N = %v/%v, want 18/18", areas[TileB], areas[TileN])
	}
}

func TestComputeCDRPctExample3MatchesQualitative(t *testing.T) {
	b := refB()
	a := example3Quadrangle()
	m, areas, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	qual, _ := ComputeCDR(a, b)
	if got := m.Relation(1e-9); got != qual {
		t.Errorf("pct-derived relation %v != qualitative %v", got, qual)
	}
	if math.Abs(areas.Total()-a.Area()) > 1e-9 {
		t.Errorf("areas total %v != region area %v", areas.Total(), a.Area())
	}
}

func TestComputeCDRPctDisconnectedWithHole(t *testing.T) {
	b := box(4, 4, 6, 6)
	// Ring around mbb(b) (hole strictly containing it) + a far blob in SE.
	left := geom.Poly(geom.Pt(0, 10), geom.Pt(5, 10), geom.Pt(5, 9),
		geom.Pt(1, 9), geom.Pt(1, 1), geom.Pt(5, 1), geom.Pt(5, 0), geom.Pt(0, 0))
	right := geom.Poly(geom.Pt(5, 10), geom.Pt(10, 10), geom.Pt(10, 0),
		geom.Pt(5, 0), geom.Pt(5, 1), geom.Pt(9, 1), geom.Pt(9, 9), geom.Pt(5, 9))
	blob := geom.Poly(geom.Pt(12, 1), geom.Pt(13, 1), geom.Pt(13, 0), geom.Pt(12, 0))
	a := geom.Rgn(left, right, blob)
	m, areas, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if areas[TileB] > 1e-12 {
		t.Errorf("hole: B area = %v, want 0", areas[TileB])
	}
	if math.Abs(areas.Total()-a.Area()) > 1e-9 {
		t.Errorf("total = %v, want %v", areas.Total(), a.Area())
	}
	if m.Get(TileSE) <= 0 {
		t.Error("SE blob lost")
	}
}

func TestComputeCDRPctErrors(t *testing.T) {
	b := refB()
	if _, _, err := ComputeCDRPct(geom.Region{}, b); err == nil {
		t.Error("empty primary should error")
	}
	if _, _, err := ComputeCDRPct(b, geom.Region{}); err == nil {
		t.Error("empty reference should error")
	}
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if _, _, err := ComputeCDRPct(b, line); err == nil {
		t.Error("degenerate reference should error")
	}
}

// Property: for random boxes, the per-tile areas equal the analytic
// rectangle–strip intersections, the total matches, and the percentage
// matrix sums to 100.
func TestComputeCDRPctBoxExactProperty(t *testing.T) {
	b := refB()
	g, _ := NewGrid(b.BoundingBox())
	f := func(x8, y8 int8, w8, h8 uint8) bool {
		x := float64(x8 % 20)
		y := float64(y8 % 12)
		w := 1 + float64(w8%20)
		h := 1 + float64(h8%12)
		a := box(x, y, x+w, y+h)
		m, areas, err := ComputeCDRPct(a, b)
		if err != nil {
			return false
		}
		colLo := []float64{negInf, g.M1, g.M2}
		colHi := []float64{g.M1, g.M2, posInf}
		rowLo := []float64{negInf, g.L1, g.L2}
		rowHi := []float64{g.L1, g.L2, posInf}
		for c := 0; c < 3; c++ {
			for rw := 0; rw < 3; rw++ {
				wantW := min2(colHi[c], x+w) - max2(colLo[c], x)
				wantH := min2(rowHi[rw], y+h) - max2(rowLo[rw], y)
				want := max2(wantW, 0) * max2(wantH, 0)
				if math.Abs(areas[TileAt(c, rw)]-want) > 1e-9 {
					return false
				}
			}
		}
		return math.Abs(m.Sum()-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the percentage matrix is invariant under joint translation and
// joint uniform scaling of both regions.
func TestComputeCDRPctInvarianceProperty(t *testing.T) {
	b := refB()
	a := example3Quadrangle()
	want, _, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dx, dy int8, s8 uint8) bool {
		d := geom.Pt(float64(dx), float64(dy))
		s := 1 + float64(s8%9)
		m1, _, err := ComputeCDRPct(a.Translate(d), b.Translate(d))
		if err != nil || !m1.ApproxEqual(want, 1e-6) {
			return false
		}
		m2, _, err := ComputeCDRPct(a.Scale(s), b.Scale(s))
		return err == nil && m2.ApproxEqual(want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: qualitative Compute-CDR and the positive-area tiles of
// Compute-CDR% agree on random multi-box regions (the two algorithms must
// tell the same qualitative story).
func TestQualitativeQuantitativeAgreementProperty(t *testing.T) {
	b := refB()
	f := func(cs [4][4]int8) bool {
		var a geom.Region
		for _, c := range cs {
			x := float64(c[0] % 20)
			y := float64(c[1] % 12)
			w := 1 + float64(uint8(c[2])%15)
			h := 1 + float64(uint8(c[3])%9)
			a = append(a, box(x, y, x+w, y+h)...)
		}
		qual, err := ComputeCDR(a, b)
		if err != nil {
			return false
		}
		_, areas, err := ComputeCDRPct(a, b)
		if err != nil {
			return false
		}
		// Note: overlapping random boxes double-count areas, but tile
		// *membership* still agrees because overlap only inflates, never
		// cancels (all polygons are clockwise).
		return areas.Relation(1e-12) == qual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPercentMatrixString(t *testing.T) {
	var m PercentMatrix
	m.Set(TileNE, 50)
	m.Set(TileE, 50)
	got := m.String()
	want := "[   0.0%   0.0%  50.0% ]\n[   0.0%   0.0%  50.0% ]\n[   0.0%   0.0%   0.0% ]"
	if got != want {
		t.Errorf("String =\n%s\nwant\n%s", got, want)
	}
}

func TestTileAreasRelationEps(t *testing.T) {
	var a TileAreas
	a[TileN] = 99.999
	a[TileB] = 0.001
	if got := a.Relation(0); got != Rel(TileN, TileB) {
		t.Errorf("eps=0: %v", got)
	}
	if got := a.Relation(1e-4); got != N {
		t.Errorf("eps=1e-4: %v", got)
	}
	var zero TileAreas
	if got := zero.Relation(0); got != 0 {
		t.Errorf("zero areas: %v", got)
	}
}
