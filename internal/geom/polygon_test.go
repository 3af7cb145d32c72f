package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// unitSquareCW is the canonical clockwise (y-up) unit square.
func unitSquareCW() Polygon {
	return Poly(Pt(0, 1), Pt(1, 1), Pt(1, 0), Pt(0, 0))
}

func TestSignedAreaOrientation(t *testing.T) {
	sq := unitSquareCW()
	if got := sq.SignedArea(); got != 1 {
		t.Errorf("clockwise unit square signed area = %v, want 1", got)
	}
	if !sq.IsClockwise() {
		t.Error("clockwise square not detected as clockwise")
	}
	ccw := Poly(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1))
	if got := ccw.SignedArea(); got != -1 {
		t.Errorf("counter-clockwise square signed area = %v, want -1", got)
	}
	if ccw.IsClockwise() {
		t.Error("counter-clockwise square detected as clockwise")
	}
}

func TestClockwiseNormalisation(t *testing.T) {
	ccw := Poly(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))
	cw := ccw.Clockwise()
	if !cw.IsClockwise() {
		t.Fatal("Clockwise() did not produce a clockwise ring")
	}
	if cw.Area() != ccw.Area() {
		t.Errorf("area changed by normalisation: %v vs %v", cw.Area(), ccw.Area())
	}
	// Idempotent on already-clockwise input (and returns the receiver).
	sq := unitSquareCW()
	if got := sq.Clockwise(); &got[0] != &sq[0] {
		t.Error("Clockwise() copied an already-clockwise ring")
	}
}

func TestPolygonAreaKnownShapes(t *testing.T) {
	tri := Poly(Pt(0, 0), Pt(0, 4), Pt(3, 0)) // right triangle, legs 3 and 4
	if got := tri.Area(); got != 6 {
		t.Errorf("triangle area = %v, want 6", got)
	}
	rect := Poly(Pt(1, 5), Pt(7, 5), Pt(7, 2), Pt(1, 2))
	if got := rect.Area(); got != 18 {
		t.Errorf("rect area = %v, want 18", got)
	}
	// L-shape: 3x3 square minus 2x2 corner = 5.
	l := Poly(Pt(0, 3), Pt(1, 3), Pt(1, 1), Pt(3, 1), Pt(3, 0), Pt(0, 0))
	if got := l.Area(); got != 5 {
		t.Errorf("L-shape area = %v, want 5", got)
	}
}

func TestPolygonBoundingBox(t *testing.T) {
	p := Poly(Pt(-1, 2), Pt(3, 7), Pt(0, -5))
	bb := p.BoundingBox()
	want := Rect{MinX: -1, MinY: -5, MaxX: 3, MaxY: 7}
	if bb != want {
		t.Errorf("BoundingBox = %v, want %v", bb, want)
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := Poly(Pt(0, 2), Pt(2, 2), Pt(2, 0), Pt(0, 0))
	if got := sq.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("square centroid = %v, want (1,1)", got)
	}
	tri := Poly(Pt(0, 0), Pt(0, 3), Pt(3, 0))
	c := tri.Centroid()
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("triangle centroid = %v, want (1,1)", c)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := Poly(Pt(0, 4), Pt(4, 4), Pt(4, 0), Pt(0, 0))
	inside := []Point{Pt(2, 2), Pt(0.5, 3.5), Pt(3.999, 0.001)}
	for _, p := range inside {
		if !sq.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	boundary := []Point{Pt(0, 0), Pt(4, 4), Pt(2, 0), Pt(0, 2), Pt(4, 2)}
	for _, p := range boundary {
		if !sq.Contains(p) {
			t.Errorf("boundary Contains(%v) = false, want true (regions are closed)", p)
		}
	}
	outside := []Point{Pt(-1, 2), Pt(5, 2), Pt(2, -0.001), Pt(2, 4.001), Pt(100, 100)}
	for _, p := range outside {
		if sq.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// U-shape opening upward.
	u := Poly(Pt(0, 3), Pt(1, 3), Pt(1, 1), Pt(2, 1), Pt(2, 3), Pt(3, 3), Pt(3, 0), Pt(0, 0))
	if !u.Contains(Pt(0.5, 2)) {
		t.Error("point in left arm should be inside")
	}
	if u.Contains(Pt(1.5, 2)) {
		t.Error("point in the notch should be outside")
	}
	if !u.Contains(Pt(1.5, 0.5)) {
		t.Error("point in the base should be inside")
	}
}

func TestPolygonContainsVertexRayGrazing(t *testing.T) {
	// A ray through a vertex must not double count: diamond.
	d := Poly(Pt(0, 1), Pt(1, 2), Pt(2, 1), Pt(1, 0)).Clockwise()
	if !d.Contains(Pt(0.5, 1)) { // ray passes through vertex (2,1)... interior point
		t.Error("interior point at vertex height should be inside")
	}
	if d.Contains(Pt(-1, 1)) {
		t.Error("exterior point at vertex height should be outside")
	}
	if d.Contains(Pt(3, 1)) {
		t.Error("exterior point right of the diamond should be outside")
	}
}

func TestIsSimple(t *testing.T) {
	if !unitSquareCW().IsSimple() {
		t.Error("square should be simple")
	}
	bowtie := Poly(Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))
	if bowtie.IsSimple() {
		t.Error("bowtie should not be simple")
	}
	if Poly(Pt(0, 0), Pt(1, 1)).IsSimple() {
		t.Error("2-gon should not be simple")
	}
	dupEdge := Poly(Pt(0, 0), Pt(0, 0), Pt(1, 1), Pt(1, 0))
	if dupEdge.IsSimple() {
		t.Error("zero-length edge should not be simple")
	}
	// Spike: consecutive edges folding back on themselves.
	spike := Poly(Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(1, 2))
	if spike.IsSimple() {
		t.Error("fold-back spike should not be simple")
	}
	// Touching (pinch) at a vertex of non-adjacent edges.
	pinch := Poly(Pt(0, 0), Pt(2, 2), Pt(4, 0), Pt(4, 4), Pt(2, 2), Pt(0, 4))
	if pinch.IsSimple() {
		t.Error("pinched ring should not be simple")
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := unitSquareCW().Validate(); err != nil {
		t.Errorf("square Validate: %v", err)
	}
	if err := Poly(Pt(0, 0), Pt(1, 1)).Validate(); err == nil {
		t.Error("2-gon should fail validation")
	}
	if err := Poly(Pt(0, 0), Pt(1, 1), Pt(2, 2)).Validate(); err == nil {
		t.Error("zero-area collinear triangle should fail validation")
	}
	if err := Poly(Pt(0, 0), Pt(math.NaN(), 1), Pt(1, 0)).Validate(); err == nil {
		t.Error("NaN vertex should fail validation")
	}
	if err := Poly(Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2)).Validate(); err == nil {
		t.Error("bowtie should fail validation")
	}
	// Finite vertices whose shoelace sum overflows: SignedArea is +Inf,
	// which is != 0, and every percent matrix over the ring would be NaN.
	huge := Poly(Pt(-1e200, -1e200), Pt(-1e200, 1e200), Pt(1e200, 1e200), Pt(1e200, -1e200))
	if err := huge.Validate(); err == nil {
		t.Error("ring with an overflowing area should fail validation")
	}
	if err := Rgn(unitSquareCW(), huge).Validate(); err == nil {
		t.Error("region holding a ring with an overflowing area should fail validation")
	}
}

func TestTranslateScaleClone(t *testing.T) {
	sq := unitSquareCW()
	moved := sq.Translate(Pt(10, -5))
	if got := moved.BoundingBox(); got != (Rect{10, -5, 11, -4}) {
		t.Errorf("Translate box = %v", got)
	}
	if moved.Area() != sq.Area() {
		t.Error("translation changed area")
	}
	scaled := sq.Scale(3)
	if scaled.Area() != 9 {
		t.Errorf("Scale area = %v, want 9", scaled.Area())
	}
	cl := sq.Clone()
	cl[0] = Pt(99, 99)
	if sq[0].Eq(Pt(99, 99)) {
		t.Error("Clone aliases the receiver")
	}
}

// Property: translating a polygon never changes its signed area, and scaling
// by s multiplies area by s².
func TestAreaInvarianceProperty(t *testing.T) {
	f := func(dx, dy int8, sRaw uint8) bool {
		sq := Poly(Pt(0, 2), Pt(3, 2), Pt(3, 0), Pt(0, 0))
		d := Pt(float64(dx), float64(dy))
		if sq.Translate(d).SignedArea() != sq.SignedArea() {
			return false
		}
		s := 1 + float64(sRaw%7)
		got := sq.Scale(s).Area()
		want := sq.Area() * s * s
		return math.Abs(got-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the centroid of a convex polygon lies inside it.
func TestCentroidInsideConvexProperty(t *testing.T) {
	f := func(w8, h8 uint8, dx, dy int8) bool {
		w := 1 + float64(w8%50)
		h := 1 + float64(h8%50)
		p := Poly(Pt(0, h), Pt(w, h), Pt(w, 0), Pt(0, 0)).Translate(Pt(float64(dx), float64(dy)))
		return p.Contains(p.Centroid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
