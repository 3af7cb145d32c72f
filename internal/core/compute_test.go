package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"cardirect/internal/geom"
)

// refB is a reference region whose mbb is [0,10]×[0,6].
func refB() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(0, 6), geom.Pt(10, 6), geom.Pt(10, 0), geom.Pt(0, 0),
	))
}

// box builds a rectangular one-polygon region.
func box(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	))
}

// example3Quadrangle reconstructs the quadrangle (N1 N2 N3 N4) of
// Examples 2–3 of the paper against a reference with mbb [0,10]×[0,6]:
// N1 ∈ W(b), N2, N3 ∈ NW(b), N4 ∈ NE(b); the relation is B:W:NW:N:NE:E and
// Compute-CDR replaces the 4 edges with 9 (N1N2→2, N2N3→1, N3N4→3, N4N1→3).
func example3Quadrangle() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(0, 2),  // N1 on the W/B boundary line, inside W(b) (tiles are closed)
		geom.Pt(-4, 9), // N2 ∈ NW
		geom.Pt(-2, 7), // N3 ∈ NW
		geom.Pt(16, 8), // N4 ∈ NE
	))
}

func TestComputeCDRSingleTiles(t *testing.T) {
	b := refB()
	cases := []struct {
		a    geom.Region
		want Relation
	}{
		{box(2, 2, 8, 4), B},
		{box(2, -4, 8, -1), S},
		{box(-4, -4, -1, -1), SW},
		{box(-4, 2, -1, 4), W},
		{box(-4, 7, -1, 9), NW},
		{box(2, 7, 8, 9), N},
		{box(11, 7, 13, 9), NE},
		{box(11, 2, 13, 4), E},
		{box(11, -4, 13, -1), SE},
	}
	for _, c := range cases {
		got, err := ComputeCDR(c.a, b)
		if err != nil {
			t.Fatalf("ComputeCDR: %v", err)
		}
		if got != c.want {
			t.Errorf("relation = %v, want %v", got, c.want)
		}
	}
}

func TestComputeCDRFig1(t *testing.T) {
	b := refB()
	// Fig. 1b: a S b.
	a := box(2, -5, 8, -1)
	if got, _ := ComputeCDR(a, b); got != S {
		t.Errorf("Fig 1b: got %v, want S", got)
	}
	// Fig. 1c: c NE:E b.
	c := box(12, 2, 14, 10)
	if got, _ := ComputeCDR(c, b); got != Rel(TileNE, TileE) {
		t.Errorf("Fig 1c: got %v, want NE:E", got)
	}
	// Fig. 1d: d = d1 ∪ … ∪ d8 with d B:S:SW:W:NW:N:E:SE b (no NE).
	d := geom.Region{}
	for _, r := range []geom.Region{
		box(2, 2, 4, 4),     // B
		box(2, -4, 4, -2),   // S
		box(-4, -4, -2, -2), // SW
		box(-4, 2, -2, 4),   // W
		box(-4, 8, -2, 9),   // NW
		box(2, 8, 4, 9),     // N
		box(12, 2, 14, 4),   // E
		box(12, -4, 14, -2), // SE
	} {
		d = append(d, r...)
	}
	want, _ := ParseRelation("B:S:SW:W:NW:N:E:SE")
	if got, _ := ComputeCDR(d, b); got != want {
		t.Errorf("Fig 1d: got %v, want %v", got, want)
	}
}

func TestComputeCDRExample3(t *testing.T) {
	b := refB()
	a := example3Quadrangle()
	if err := a.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	rel, st, err := ComputeCDRStats(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseRelation("B:W:NW:N:NE:E")
	if rel != want {
		t.Errorf("Example 3 relation = %v, want %v", rel, want)
	}
	if st.EdgesIn != 4 {
		t.Errorf("EdgesIn = %d, want 4", st.EdgesIn)
	}
	if st.EdgesOut != 9 {
		t.Errorf("EdgesOut = %d, want 9 (the paper's count)", st.EdgesOut)
	}
	if st.Passes != 1 {
		t.Errorf("Passes = %d, want 1 (single-pass claim)", st.Passes)
	}
}

// TestComputeCDRExample2Naive documents why plain vertex classification is
// wrong (Example 2 of the paper): the vertices of the quadrangle fall only
// in W, NW, NE, but the relation is B:W:NW:N:NE:E.
func TestComputeCDRExample2Naive(t *testing.T) {
	b := refB()
	g, err := NewGrid(b.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	a := example3Quadrangle()
	vertexTiles := Relation(0)
	for _, v := range a[0] {
		vertexTiles = vertexTiles.With(g.ClassifyPoint(v))
	}
	rel, _ := ComputeCDR(a, b)
	if vertexTiles == rel {
		t.Error("vertex tiles should differ from the true relation (that is the point of Example 2)")
	}
	// The edges expand over tiles N and E that no vertex falls in (N1 lies
	// on the W/B line, so point classification may report W or B for it).
	if vertexTiles.Has(TileN) || vertexTiles.Has(TileE) {
		t.Errorf("vertex tiles = %v; N and E must be missed by vertices", vertexTiles)
	}
}

func TestComputeCDRContainment(t *testing.T) {
	b := refB()
	// A polygon strictly containing mbb(b): all 8 peripheral tiles via
	// edges, plus B via the centre-of-mbb test.
	a := box(-10, -10, 20, 16)
	got, _ := ComputeCDR(a, b)
	want, _ := ParseRelation("B:S:SW:W:NW:N:NE:E:SE")
	if got != want {
		t.Errorf("containing box: got %v, want %v", got, want)
	}
}

func TestComputeCDRRingAroundBox(t *testing.T) {
	// A ring (hole decomposition) whose hole strictly contains mbb(b):
	// the primary has no material in B, and the centre-of-mbb test must not
	// fire for either C-shaped piece.
	b := box(4, 4, 6, 6)
	left := geom.Poly(geom.Pt(0, 10), geom.Pt(5, 10), geom.Pt(5, 9),
		geom.Pt(1, 9), geom.Pt(1, 1), geom.Pt(5, 1), geom.Pt(5, 0), geom.Pt(0, 0))
	right := geom.Poly(geom.Pt(5, 10), geom.Pt(10, 10), geom.Pt(10, 0),
		geom.Pt(5, 0), geom.Pt(5, 1), geom.Pt(9, 1), geom.Pt(9, 9), geom.Pt(5, 9))
	a := geom.Rgn(left, right)
	if err := a.ValidateStrict(); err != nil {
		t.Fatalf("ring fixture: %v", err)
	}
	got, _ := ComputeCDR(a, b)
	if got.Has(TileB) {
		t.Errorf("ring around box: relation %v must not contain B", got)
	}
	want, _ := ParseRelation("S:SW:W:NW:N:NE:E:SE")
	if got != want {
		t.Errorf("ring around box: got %v, want %v", got, want)
	}
}

func TestComputeCDRSharedBoundary(t *testing.T) {
	b := refB()
	// a lies exactly west of b, sharing the line x = 0. By Definition 1
	// (sup_x(a) ≤ inf_x(b)) the relation is W — the interior-side rule must
	// keep the on-line edge out of tile B.
	a := box(-3, 1, 0, 5)
	if got, _ := ComputeCDR(a, b); got != W {
		t.Errorf("shared west boundary: got %v, want W", got)
	}
	// Same on the north side.
	n := box(2, 6, 8, 9)
	if got, _ := ComputeCDR(n, b); got != N {
		t.Errorf("shared north boundary: got %v, want N", got)
	}
	// a = mbb(b) exactly: relation B.
	if got, _ := ComputeCDR(box(0, 0, 10, 6), b); got != B {
		t.Errorf("identical box: got %v, want B", got)
	}
	// Corner touch: a box meeting b exactly at the SW corner of mbb(b).
	if got, _ := ComputeCDR(box(-4, -4, 0, 0), b); got != SW {
		t.Errorf("corner touch: got %v, want SW", got)
	}
}

func TestComputeCDRSelf(t *testing.T) {
	b := refB()
	if got, _ := ComputeCDR(b, b); got != B {
		t.Errorf("a = b: got %v, want B", got)
	}
}

func TestComputeCDRDisconnectedPrimary(t *testing.T) {
	b := refB()
	a := append(box(-5, -5, -2, -2), box(12, 8, 15, 11)...)
	got, _ := ComputeCDR(a, b)
	if got != Rel(TileSW, TileNE) {
		t.Errorf("disconnected: got %v, want SW:NE", got)
	}
}

func TestComputeCDRErrors(t *testing.T) {
	b := refB()
	if _, err := ComputeCDR(geom.Region{}, b); err == nil {
		t.Error("empty primary should error")
	}
	if _, err := ComputeCDR(b, geom.Region{}); err == nil {
		t.Error("empty reference should error")
	}
	// Degenerate reference (zero-height mbb).
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if _, err := ComputeCDR(b, line); err == nil {
		t.Error("degenerate reference mbb should error")
	}
}

// TestOneShotDegenerateSentinel pins the one-shot error contract on both
// entry points: every degenerate input wraps ErrDegenerateRegion (which the
// HTTP layer maps to 422), with the message text kept.
func TestOneShotDegenerateSentinel(t *testing.T) {
	noEdges := geom.Region{geom.Polygon{}}
	entries := []struct {
		name string
		run  func(a, b geom.Region) error
	}{
		{"ComputeCDR", func(a, b geom.Region) error { _, err := ComputeCDR(a, b); return err }},
		{"ComputeCDRPct", func(a, b geom.Region) error { _, _, err := ComputeCDRPct(a, b); return err }},
	}
	for _, tc := range []struct {
		name   string
		a, b   geom.Region
		cdrMsg string
		pctMsg string
	}{
		{"empty primary", nil, refB(), "primary region is empty", "primary region is empty"},
		{"empty reference", refB(), nil, "reference region is empty", "reference region is empty"},
		{"primary without edges", noEdges, refB(), "produced no tiles", "zero area"},
	} {
		for i, e := range entries {
			err := e.run(tc.a, tc.b)
			msg := [...]string{tc.cdrMsg, tc.pctMsg}[i]
			if !errors.Is(err, ErrDegenerateRegion) {
				t.Errorf("%s(%s): %v does not wrap ErrDegenerateRegion", e.name, tc.name, err)
			} else if !strings.Contains(err.Error(), msg) {
				t.Errorf("%s(%s): message %q lacks %q", e.name, tc.name, err, msg)
			}
		}
	}
}

// Property: translating both regions by the same vector leaves the relation
// unchanged.
func TestComputeCDRTranslationInvarianceProperty(t *testing.T) {
	b := refB()
	a := example3Quadrangle()
	want, _ := ComputeCDR(a, b)
	f := func(dx, dy int16) bool {
		d := geom.Pt(float64(dx), float64(dy))
		got, err := ComputeCDR(a.Translate(d), b.Translate(d))
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for random axis-aligned boxes the relation computed by
// Compute-CDR matches the one derived directly from Definition 1's
// inequalities on the projections.
func TestComputeCDRMatchesDefinitionOnBoxesProperty(t *testing.T) {
	b := refB()
	g, err := NewGrid(b.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	f := func(x1, y1 int8, w8, h8 uint8) bool {
		x := float64(x1 % 20)
		y := float64(y1 % 12)
		w := 1 + float64(w8%20)
		h := 1 + float64(h8%12)
		a := box(x, y, x+w, y+h)
		got, err := ComputeCDR(a, b)
		if err != nil {
			return false
		}
		return got == boxRelation(g, x, y, x+w, y+h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// boxRelation derives the relation of an axis-aligned box w.r.t. the grid
// straight from Definition 1: the box occupies every tile its interior
// meets.
func boxRelation(g Grid, minX, minY, maxX, maxY float64) Relation {
	var r Relation
	colEdges := []float64{minX, g.M1, g.M2, maxX}
	rowEdges := []float64{minY, g.L1, g.L2, maxY}
	// The interior of the box overlaps column strip c iff the open interval
	// (max(minX, stripLo), min(maxX, stripHi)) is non-empty; same for rows.
	strip := func(lo, hi, a, b float64) bool {
		l := max2(lo, a)
		h := min2(hi, b)
		return l < h
	}
	_ = colEdges
	_ = rowEdges
	colLo := []float64{negInf, g.M1, g.M2}
	colHi := []float64{g.M1, g.M2, posInf}
	rowLo := []float64{negInf, g.L1, g.L2}
	rowHi := []float64{g.L1, g.L2, posInf}
	for c := 0; c < 3; c++ {
		for rw := 0; rw < 3; rw++ {
			if strip(colLo[c], colHi[c], minX, maxX) && strip(rowLo[rw], rowHi[rw], minY, maxY) {
				r = r.With(TileAt(c, rw))
			}
		}
	}
	return r
}

const (
	negInf = -1e308
	posInf = 1e308
)
