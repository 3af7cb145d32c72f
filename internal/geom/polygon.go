package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon stored as its vertex ring, without repeating
// the first vertex. The canonical orientation is clockwise in the y-up plane
// (the paper's convention: "the edges of polygons are taken in a clockwise
// order"), which places the interior to the right of every directed edge.
// With that orientation the paper's trapezoid expression E_l sums to the
// positive area for any reference line y = l below (or not crossing) the
// polygon.
type Polygon []Point

// Poly is shorthand for constructing a Polygon from vertices.
func Poly(pts ...Point) Polygon { return Polygon(pts) }

// NumEdges returns the number of edges, equal to the number of vertices.
func (p Polygon) NumEdges() int { return len(p) }

// Edge returns the i-th directed edge; edge i runs from vertex i to vertex
// (i+1) mod n.
func (p Polygon) Edge(i int) Segment {
	j := i + 1
	if j == len(p) {
		j = 0
	}
	return Segment{A: p[i], B: p[j]}
}

// Edges returns all directed edges in ring order.
func (p Polygon) Edges() []Segment {
	es := make([]Segment, len(p))
	for i := range p {
		es[i] = p.Edge(i)
	}
	return es
}

// SignedArea returns Σ (x_B−x_A)(y_A+y_B)/2 over the polygon's edges — the
// paper's expression E_0(AB) summed along the ring. It is positive when the
// ring is clockwise (y-up) and negative when counter-clockwise.
func (p Polygon) SignedArea() float64 {
	var s float64
	for i := range p {
		e := p.Edge(i)
		s += (e.B.X - e.A.X) * (e.A.Y + e.B.Y) / 2
	}
	return s
}

// Area returns the polygon's (non-negative) area.
func (p Polygon) Area() float64 { return abs(p.SignedArea()) }

// IsClockwise reports whether the ring is in the canonical clockwise (y-up)
// orientation. Degenerate zero-area rings report false.
func (p Polygon) IsClockwise() bool { return p.SignedArea() > 0 }

// Clockwise returns p in canonical clockwise orientation, reversing the ring
// if necessary. The receiver is not modified; when already clockwise the
// receiver itself is returned.
func (p Polygon) Clockwise() Polygon {
	if len(p) < 3 || p.IsClockwise() || p.SignedArea() == 0 {
		return p
	}
	q := make(Polygon, len(p))
	for i, v := range p {
		q[len(p)-1-i] = v
	}
	return q
}

// BoundingBox returns the polygon's minimum bounding box.
func (p Polygon) BoundingBox() Rect {
	r := EmptyRect()
	for _, v := range p {
		r = r.ExtendPoint(v)
	}
	return r
}

// Centroid returns the area centroid of the polygon. Degenerate zero-area
// polygons fall back to the vertex average.
func (p Polygon) Centroid() Point {
	var cx, cy, a float64
	for i := range p {
		e := p.Edge(i)
		cr := e.A.Cross(e.B)
		cx += (e.A.X + e.B.X) * cr
		cy += (e.A.Y + e.B.Y) * cr
		a += cr
	}
	if a == 0 {
		var s Point
		for _, v := range p {
			s = s.Add(v)
		}
		return s.Scale(1 / float64(len(p)))
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Contains reports whether point q lies inside the polygon or on its
// boundary. It uses the winding-free even–odd ray casting rule with exact
// handling of boundary points: points on an edge or vertex are reported as
// contained (regions in the paper are closed sets).
func (p Polygon) Contains(q Point) bool {
	if len(p) < 3 {
		return false
	}
	inside := false
	for i := range p {
		e := p.Edge(i)
		// Boundary check first: collinear and within the segment box.
		if Orient(e.A, e.B, q) == 0 && onSegment(e, q) {
			return true
		}
		// Even–odd crossing test for the horizontal ray to +∞ from q.
		ay, by := e.A.Y, e.B.Y
		if (ay > q.Y) != (by > q.Y) {
			// x-coordinate of the edge at height q.Y.
			xAt := e.A.X + (q.Y-ay)/(by-ay)*(e.B.X-e.A.X)
			if xAt > q.X {
				inside = !inside
			}
		}
	}
	return inside
}

// IsSimple reports whether the polygon is simple: at least 3 vertices, no
// repeated consecutive vertices, no zero-length edges and no pair of edges
// that properly intersect (crossing, overlapping collinearly, or touching
// anywhere other than the shared vertex of consecutive edges). The check is
// the straightforward O(n²) pairwise test; polygon sizes in cardinal
// direction workloads make this entirely adequate, and validation is not on
// the computation hot path.
func (p Polygon) IsSimple() bool {
	n := len(p)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if p.Edge(i).IsDegenerate() {
			return false
		}
	}
	for i := 0; i < n; i++ {
		ei := p.Edge(i)
		for j := i + 1; j < n; j++ {
			ej := p.Edge(j)
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				// Consecutive edges share exactly one endpoint; any further
				// contact (collinear fold-back) makes the ring non-simple.
				if SegmentsProperlyIntersect(ei, ej) {
					return false
				}
				continue
			}
			if SegmentsIntersect(ei, ej) {
				return false
			}
		}
	}
	return true
}

// Validate checks that the polygon is usable as a region component: finite
// coordinates, simple, and of positive finite area (from about 1e154 up the
// shoelace products overflow, and every area-derived answer — percent
// matrices above all — would be Inf or NaN). It returns a descriptive error
// for the first violation found.
func (p Polygon) Validate() error {
	if len(p) < 3 {
		return fmt.Errorf("geom: polygon has %d vertices, need at least 3", len(p))
	}
	for i, v := range p {
		if !v.IsFinite() {
			return fmt.Errorf("geom: polygon vertex %d is not finite: %v", i, v)
		}
	}
	for i := 0; i < len(p); i++ {
		if p.Edge(i).IsDegenerate() {
			return fmt.Errorf("geom: polygon edge %d is degenerate at %v", i, p[i])
		}
	}
	switch a := p.SignedArea(); {
	case a == 0:
		return fmt.Errorf("geom: polygon has zero area")
	case math.IsNaN(a) || math.IsInf(a, 0):
		return fmt.Errorf("geom: polygon area is not finite (coordinates overflow)")
	}
	// The naive quadratic check wins on small rings; the sweep wins once
	// rings get large (the GIS-scale inputs §3 of the paper anticipates).
	simple := p.IsSimple
	if len(p) >= 32 {
		simple = p.IsSimpleFast
	}
	if !simple() {
		return fmt.Errorf("geom: polygon is not simple (self-intersecting)")
	}
	return nil
}

// Clone returns a deep copy of the polygon.
func (p Polygon) Clone() Polygon {
	q := make(Polygon, len(p))
	copy(q, p)
	return q
}

// Translate returns the polygon shifted by the vector d.
func (p Polygon) Translate(d Point) Polygon {
	q := make(Polygon, len(p))
	for i, v := range p {
		q[i] = v.Add(d)
	}
	return q
}

// Scale returns the polygon scaled by s about the origin.
func (p Polygon) Scale(s float64) Polygon {
	q := make(Polygon, len(p))
	for i, v := range p {
		q[i] = v.Scale(s)
	}
	return q
}
