package geom

import "fmt"

// Segment is a directed straight-line edge from A to B. Polygon edges are
// segments taken in the polygon's (clockwise) vertex order; the direction
// matters because the polygon interior lies to the right of A→B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Reverse returns the segment with its direction flipped.
func (s Segment) Reverse() Segment { return Segment{A: s.B, B: s.A} }

// Mid returns the segment midpoint.
func (s Segment) Mid() Point { return s.A.Mid(s.B) }

// IsDegenerate reports whether the segment has coincident endpoints.
func (s Segment) IsDegenerate() bool { return s.A.Eq(s.B) }

// String renders the segment as "A→B".
func (s Segment) String() string { return fmt.Sprintf("%v→%v", s.A, s.B) }

// CrossVertical reports whether the open interior of the segment crosses the
// vertical line x = m, and if so the parameter t ∈ (0,1) of the crossing
// along A→B. Touching the line only at an endpoint, or lying entirely on it,
// is not a crossing — this matches Definition 3 of the paper ("e does not
// cross AB") where those cases are excluded.
func (s Segment) CrossVertical(m float64) (t float64, ok bool) {
	dx := s.B.X - s.A.X
	if dx == 0 {
		return 0, false
	}
	t = (m - s.A.X) / dx
	if t <= 0 || t >= 1 {
		return 0, false
	}
	return t, true
}

// CrossHorizontal is the horizontal-line analogue of CrossVertical for the
// line y = l.
func (s Segment) CrossHorizontal(l float64) (t float64, ok bool) {
	dy := s.B.Y - s.A.Y
	if dy == 0 {
		return 0, false
	}
	t = (l - s.A.Y) / dy
	if t <= 0 || t >= 1 {
		return 0, false
	}
	return t, true
}

// At returns the point at parameter t along A→B; t=0 yields A and t=1
// yields B. When the segment is known to cross an axis-parallel line at t,
// the corresponding coordinate is snapped exactly onto the line so that
// later tile classification never suffers from rounding drift.
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// AtOnVertical returns the point at parameter t with its x-coordinate
// snapped exactly to m (the vertical line the segment crosses at t).
func (s Segment) AtOnVertical(t, m float64) Point {
	return Point{m, s.A.Y + t*(s.B.Y-s.A.Y)}
}

// AtOnHorizontal returns the point at parameter t with its y-coordinate
// snapped exactly to l (the horizontal line the segment crosses at t).
func (s Segment) AtOnHorizontal(t, l float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), l}
}

// SegmentsIntersect reports whether segments s and u share at least one
// point, including touching at endpoints and collinear overlap. It uses
// exact orientation tests only (no divisions).
func SegmentsIntersect(s, u Segment) bool {
	o1 := Orient(s.A, s.B, u.A)
	o2 := Orient(s.A, s.B, u.B)
	o3 := Orient(u.A, u.B, s.A)
	o4 := Orient(u.A, u.B, s.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear cases: check bounding-interval overlap.
	if o1 == 0 && onSegment(s, u.A) {
		return true
	}
	if o2 == 0 && onSegment(s, u.B) {
		return true
	}
	if o3 == 0 && onSegment(u, s.A) {
		return true
	}
	if o4 == 0 && onSegment(u, s.B) {
		return true
	}
	return false
}

// SegmentsProperlyIntersect reports whether the open interiors of s and u
// share a point, or the segments overlap collinearly over more than a single
// point. Shared endpoints alone do not count; this is the test polygon
// simplicity validation needs, since consecutive polygon edges legitimately
// share a vertex.
func SegmentsProperlyIntersect(s, u Segment) bool {
	o1 := Orient(s.A, s.B, u.A)
	o2 := Orient(s.A, s.B, u.B)
	o3 := Orient(u.A, u.B, s.A)
	o4 := Orient(u.A, u.B, s.B)
	if o1 != o2 && o3 != o4 {
		// They cross; exclude the case where the crossing is exactly a
		// shared endpoint.
		shared := s.A.Eq(u.A) || s.A.Eq(u.B) || s.B.Eq(u.A) || s.B.Eq(u.B)
		return !shared
	}
	if o1 == 0 && o2 == 0 && o3 == 0 && o4 == 0 {
		// Collinear: overlap of more than one point is improper.
		return collinearOverlapLen(s, u)
	}
	// One endpoint lies strictly inside the other segment.
	if o1 == 0 && strictlyInside(s, u.A) {
		return true
	}
	if o2 == 0 && strictlyInside(s, u.B) {
		return true
	}
	if o3 == 0 && strictlyInside(u, s.A) {
		return true
	}
	if o4 == 0 && strictlyInside(u, s.B) {
		return true
	}
	return false
}

// onSegment reports whether point p, known to be collinear with s, lies on s
// (endpoints included).
func onSegment(s Segment, p Point) bool {
	return min2(s.A.X, s.B.X) <= p.X && p.X <= max2(s.A.X, s.B.X) &&
		min2(s.A.Y, s.B.Y) <= p.Y && p.Y <= max2(s.A.Y, s.B.Y)
}

// strictlyInside reports whether point p, known to be collinear with s, lies
// on s excluding both endpoints.
func strictlyInside(s Segment, p Point) bool {
	return onSegment(s, p) && !p.Eq(s.A) && !p.Eq(s.B)
}

// collinearOverlapLen reports whether two collinear segments overlap in more
// than a single point.
func collinearOverlapLen(s, u Segment) bool {
	// Project on the dominant axis to avoid degenerate comparisons.
	if abs(s.B.X-s.A.X) >= abs(s.B.Y-s.A.Y) {
		lo1, hi1 := minmax(s.A.X, s.B.X)
		lo2, hi2 := minmax(u.A.X, u.B.X)
		return min2(hi1, hi2) > max2(lo1, lo2)
	}
	lo1, hi1 := minmax(s.A.Y, s.B.Y)
	lo2, hi2 := minmax(u.A.Y, u.B.Y)
	return min2(hi1, hi2) > max2(lo1, lo2)
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minmax(a, b float64) (lo, hi float64) {
	if a < b {
		return a, b
	}
	return b, a
}

func abs(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
