package geom

import (
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 3))
	if got := s.Mid(); !got.Eq(Pt(2, 1.5)) {
		t.Errorf("Mid = %v", got)
	}
	if !s.Reverse().A.Eq(s.B) || !s.Reverse().B.Eq(s.A) {
		t.Errorf("Reverse broken: %v", s.Reverse())
	}
	if s.IsDegenerate() {
		t.Error("non-degenerate segment reported degenerate")
	}
	if !Seg(Pt(1, 1), Pt(1, 1)).IsDegenerate() {
		t.Error("degenerate segment not detected")
	}
}

func TestCrossVertical(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	if tt, ok := s.CrossVertical(5); !ok || tt != 0.5 {
		t.Errorf("CrossVertical(5) = %v,%v", tt, ok)
	}
	// Touching at an endpoint is not a crossing (Definition 3 of the paper).
	if _, ok := s.CrossVertical(0); ok {
		t.Error("endpoint touch reported as crossing")
	}
	if _, ok := s.CrossVertical(10); ok {
		t.Error("endpoint touch reported as crossing")
	}
	// Line beyond the segment.
	if _, ok := s.CrossVertical(11); ok {
		t.Error("non-intersecting line reported as crossing")
	}
	// Vertical segment lying on the line is not a crossing.
	v := Seg(Pt(5, 0), Pt(5, 10))
	if _, ok := v.CrossVertical(5); ok {
		t.Error("collinear vertical segment reported as crossing")
	}
}

func TestCrossHorizontal(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	if tt, ok := s.CrossHorizontal(2.5); !ok || tt != 0.25 {
		t.Errorf("CrossHorizontal(2.5) = %v,%v", tt, ok)
	}
	if _, ok := s.CrossHorizontal(0); ok {
		t.Error("endpoint touch reported as crossing")
	}
	h := Seg(Pt(0, 5), Pt(10, 5))
	if _, ok := h.CrossHorizontal(5); ok {
		t.Error("collinear horizontal segment reported as crossing")
	}
}

func TestAtSnapping(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 9))
	tt, ok := s.CrossVertical(1)
	if !ok {
		t.Fatal("expected crossing")
	}
	p := s.AtOnVertical(tt, 1)
	if p.X != 1 {
		t.Errorf("AtOnVertical did not snap x: %v", p)
	}
	tt2, ok := s.CrossHorizontal(3)
	if !ok {
		t.Fatal("expected crossing")
	}
	q := s.AtOnHorizontal(tt2, 3)
	if q.Y != 3 {
		t.Errorf("AtOnHorizontal did not snap y: %v", q)
	}
	if got := s.At(1.0 / 3); got.Y != 3 {
		t.Errorf("At(1/3) = %v", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},  // X crossing
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 2), Pt(3, 3)), false}, // disjoint collinear
		{Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(1, 1), Pt(3, 3)), true},  // collinear overlap
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 5)), true},  // shared endpoint
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(2, 3)), true},  // T-touch
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, 1), Pt(6, 2)), false}, // disjoint
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 1), Pt(2, 3)), false}, // above
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.s, c.u); got != c.want {
			t.Errorf("case %d: SegmentsIntersect(%v,%v) = %v, want %v", i, c.s, c.u, got, c.want)
		}
		if got := SegmentsIntersect(c.u, c.s); got != c.want {
			t.Errorf("case %d (swapped): got %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentsProperlyIntersect(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},  // X crossing
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 5)), false}, // shared endpoint only
		{Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(1, 1), Pt(3, 3)), true},  // collinear overlap
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(2, 0), Pt(4, 0)), false}, // collinear touch at point
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(2, 3)), true},  // T: endpoint inside other
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(0, 0), Pt(4, 0)), true},  // identical
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(5, 5), Pt(6, 6)), false}, // disjoint collinear
	}
	for i, c := range cases {
		if got := SegmentsProperlyIntersect(c.s, c.u); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
		if got := SegmentsProperlyIntersect(c.u, c.s); got != c.want {
			t.Errorf("case %d (swapped): got %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentsIntersectSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		u := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		return SegmentsIntersect(s, u) == SegmentsIntersect(u, s) &&
			SegmentsProperlyIntersect(s, u) == SegmentsProperlyIntersect(u, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProperImpliesIntersectProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		u := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		if SegmentsProperlyIntersect(s, u) {
			return SegmentsIntersect(s, u)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
