// Package clip implements the polygon-clipping approach to computing
// cardinal direction relations — the comparison method discussed in §3 of
// Skiadopoulos et al. (EDBT 2004) and the subject of the paper's first
// future-work item ("evaluate experimentally our algorithm against polygon
// clipping methods").
//
// The package provides Sutherland–Hodgman half-plane clipping (which handles
// the unbounded tiles directly) and clipping-based equivalents of
// Compute-CDR and Compute-CDR% that segment the primary region into one
// piece set per tile — scanning the edge list once per tile, nine times in
// total, exactly the cost profile the paper attributes to this method.
package clip

import (
	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// HalfPlane is the closed set of points p with Eval(p) ≥ 0. Axis-aligned
// half-planes suffice for tile clipping, but the representation is general
// (a·x + b·y ≥ c).
type HalfPlane struct {
	A, B, C float64
}

// Eval returns a·x + b·y − c; non-negative means inside.
func (h HalfPlane) Eval(p geom.Point) float64 { return h.A*p.X + h.B*p.Y - h.C }

// Contains reports whether p lies in the closed half-plane.
func (h HalfPlane) Contains(p geom.Point) bool { return h.Eval(p) >= 0 }

// XGE returns the half-plane x ≥ c.
func XGE(c float64) HalfPlane { return HalfPlane{A: 1, C: c} }

// XLE returns the half-plane x ≤ c.
func XLE(c float64) HalfPlane { return HalfPlane{A: -1, C: -c} }

// YGE returns the half-plane y ≥ c.
func YGE(c float64) HalfPlane { return HalfPlane{B: 1, C: c} }

// YLE returns the half-plane y ≤ c.
func YLE(c float64) HalfPlane { return HalfPlane{B: -1, C: -c} }

// intersect returns the point where segment ab crosses the half-plane's
// boundary line, assuming Eval(a) and Eval(b) have opposite signs. For the
// axis-aligned half-planes used in tile clipping the crossed coordinate is
// snapped exactly onto the line.
func (h HalfPlane) intersect(a, b geom.Point) geom.Point {
	ea, eb := h.Eval(a), h.Eval(b)
	t := ea / (ea - eb)
	p := geom.Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
	switch {
	case h.B == 0 && h.A != 0: // vertical boundary x = C/A
		p.X = h.C / h.A
	case h.A == 0 && h.B != 0: // horizontal boundary y = C/B
		p.Y = h.C / h.B
	}
	return p
}

// clipPolygonCounting clips a simple polygon to the closed half-plane with
// the Sutherland–Hodgman rule, returning the clipped ring (possibly empty),
// and adds the intersection points it computes (each costs a division) to
// *nIntersect. For concave subjects the single output ring may contain
// coincident "bridge" vertices where the clip line cuts the subject into
// several pieces; the ring's signed area is still exact, which is all the
// clipping-based relation computation needs.
func (h HalfPlane) clipPolygonCounting(p geom.Polygon, nIntersect *int) geom.Polygon {
	if len(p) == 0 {
		return nil
	}
	out := make(geom.Polygon, 0, len(p)+4)
	prev := p[len(p)-1]
	prevIn := h.Contains(prev)
	for _, cur := range p {
		curIn := h.Contains(cur)
		switch {
		case prevIn && curIn:
			out = append(out, cur)
		case prevIn && !curIn:
			out = append(out, h.intersect(prev, cur))
			*nIntersect++
		case !prevIn && curIn:
			out = append(out, h.intersect(prev, cur), cur)
			*nIntersect++
		}
		prev, prevIn = cur, curIn
	}
	return dedupeRing(out)
}

// clipPolygonAllCounting clips p to the intersection of the half-planes hs.
func clipPolygonAllCounting(p geom.Polygon, hs []HalfPlane, nIntersect *int) geom.Polygon {
	out := p
	for _, h := range hs {
		out = h.clipPolygonCounting(out, nIntersect)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// dedupeRing removes consecutive duplicate vertices (including the
// wrap-around pair) that half-plane clipping can introduce.
func dedupeRing(p geom.Polygon) geom.Polygon {
	if len(p) == 0 {
		return nil
	}
	out := p[:0]
	for _, v := range p {
		if len(out) == 0 || !out[len(out)-1].Eq(v) {
			out = append(out, v)
		}
	}
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// TileHalfPlanes returns the (at most four) half-planes whose intersection
// is the given closed tile of the grid.
func TileHalfPlanes(g core.Grid, t core.Tile) []HalfPlane {
	hs := make([]HalfPlane, 0, 4)
	switch t.Col() {
	case 0:
		hs = append(hs, XLE(g.M1))
	case 1:
		hs = append(hs, XGE(g.M1), XLE(g.M2))
	case 2:
		hs = append(hs, XGE(g.M2))
	}
	switch t.Row() {
	case 0:
		hs = append(hs, YLE(g.L1))
	case 1:
		hs = append(hs, YGE(g.L1), YLE(g.L2))
	case 2:
		hs = append(hs, YGE(g.L2))
	}
	return hs
}
