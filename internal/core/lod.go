package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"cardirect/internal/geom"
)

// Level-of-detail tier: answer relations from error-bounded simplified
// geometry whenever a proved certain/possible tile bracket makes the
// simplified answer bit-identical to the exact kernel's, from a
// strip-localised subset of the exact edges otherwise, and from the full
// exact kernel as the last resort. The tier exists for huge worlds (10^5+
// regions with zipfian edge counts) where the handful of giant regions
// dominate all-pairs cost: their kernels run over tens of simplified
// edges — or a handful of exact edges near the grid lines — instead of
// thousands of exact ones.
//
// Soundness rests on these facts, each established where it is used:
//
//  1. geom.SimplifyRegion anchors the Douglas–Peucker pass at each
//     polygon's extreme vertices, so every per-polygon bounding box — and
//     hence the region box, the reference grid, and the grid center — is
//     EXACTLY the original's. Everything derived from boxes alone
//     (reference grids, the MBB fast paths, the coarse index) is
//     therefore exact by construction, and a LoD region is a perfect
//     reference for any pair.
//
//  2. The simplified boundary S is within Hausdorff distance eps of the
//     original boundary O in both directions (geom/simplify.go). The
//     bracket in relateSimplified computes two tile masks from S alone:
//
//       - certain: cells where some split sub-segment holds a point at
//         per-axis depth > eps inside the cell (found by clipping the
//         sub-segment against the cell shrunk by eps and verifying a
//         witness strictly). S ⊆ N_eps(O), so an original boundary point
//         lies within eps of the witness, hence strictly inside the open
//         cell; and an original boundary point strictly inside an open
//         cell always marks it: its crossing-free sub-segment stays in
//         the closed cell, so its coordinate span lies within the
//         cell's closed range and not along a line of it (a segment
//         along a line has no point strictly inside), where
//         classifyCol/Row need no tie-break. Hence certain ⊆ marks(O).
//
//       - possible: cells whose eps-expansion the sub-segment meets,
//         found by the same clipping against the cell expanded by eps
//         per axis (the Minkowski sum with the eps-square, a superset of
//         the Euclidean eps-neighbourhood). Every original boundary
//         point is within eps of some sub-segment point (O ⊆ N_eps(S)),
//         so whatever cell ANY tie-break assigns it to, that cell's
//         expansion meets the sub-segment. Hence marks(O) ⊆ possible.
//
//     certain == possible therefore pins the boundary marks of the exact
//     kernel regardless of interior-side tie-breaking, without ever
//     looking at the original edges.
//
//  3. Tile B's center-containment test agrees when the grid center keeps
//     distance > 2·eps from every simplified segment: the original
//     boundary is then > eps away too, and the straight-line homotopy
//     from the original ring to its simplified chords moves no point by
//     more than eps, so the loop never sweeps over the center and the
//     even-odd parity — hence Polygon.Contains — is identical for both
//     rings. The per-polygon bounding-box gate of addCenterTile is
//     box-exact by fact 1.
//
//  4. A pair the bracket cannot certify (a tiny reference deep inside a
//     giant's error band always defeats it: middle cells need grid spans
//     > 2·eps) is answered by the strip stage (lod_strip.go) over the
//     ORIGINAL edges — exact classification of just the edges whose
//     coordinate intervals meet [m1,m2] or [l1,l2], plus vertex-dominance
//     staircases for the corner cells and a bucketed parity query for
//     tile B. No epsilon reasoning is involved; see the lod_strip.go
//     comment for the exactness argument.
//
// A pair failing every stage falls through to the exact kernel via
// LoD.Exact, a lazily-built exact Prepared of the primary; Stats counts
// the outcomes (LoDSimplified / LoDStrip / LoDExact).

// DefaultEpsFrac is the default simplification tolerance as a fraction of
// the region's smaller bounding-box dimension.
const DefaultEpsFrac = 0.05

// DefaultLoDMinEdges is the edge count below which a region is not worth
// simplifying: the exact kernel over a handful of edges is cheaper than
// any clearance bookkeeping.
const DefaultLoDMinEdges = 16

// LoDOptions configures level-of-detail preparation.
type LoDOptions struct {
	// EpsFrac sets each region's simplification tolerance to
	// EpsFrac × min(box width, box height); 0 means DefaultEpsFrac.
	// Negative disables simplification (the tier degrades to exact).
	EpsFrac float64
	// MinEdges skips simplification for regions below this edge count;
	// 0 means DefaultLoDMinEdges.
	MinEdges int
	// Grid is the coarse-index resolution per axis for PrepareLoDWorld;
	// 0 means DefaultCoarseGrid.
	Grid int
	// Workers sizes the worker pool of LoDWorld batch sweeps; ≤0 means
	// GOMAXPROCS.
	Workers int
}

func (o LoDOptions) epsFrac() float64 {
	if o.EpsFrac == 0 {
		return DefaultEpsFrac
	}
	if o.EpsFrac < 0 {
		return 0
	}
	return o.EpsFrac
}

func (o LoDOptions) minEdges() int {
	if o.MinEdges <= 0 {
		return DefaultLoDMinEdges
	}
	return o.MinEdges
}

// LoD is the level-of-detail side of one region — kept only for the regions
// that have one: those whose simplification dropped an edge (Eps > 0) and
// those big enough for the strip stage. The world's Prepared for such a
// region holds the SIMPLIFIED edges under the ORIGINAL's boxes, areas and
// band-path gate (boxes are shared exactly, see the file comment), so the
// box- and area-only fast paths answer for the original geometry; the exact
// Prepared is built from the caller's ring only when a pair needs it.
// Immutable after construction except for the two lazy caches, which are
// safe for concurrent use.
type LoD struct {
	// Eps is the simplification tolerance; 0 means nothing was dropped and
	// the world's Prepared IS the exact preparation.
	Eps float64

	simp      *Prepared   // the world's Prepared of this region
	orig      geom.Region // the caller's region, by reference (for lazy exact prep)
	origEdges int         // ORIGINAL edge count (the strip-stage gate)
	exact     atomic.Pointer[Prepared]
	strip     atomic.Pointer[stripIndex]
}

// SimplifiedEdges returns the simplified edge count — the cost unit of the
// LoD kernel path.
func (l *LoD) SimplifiedEdges() int { return len(l.simp.ax) }

// Exact returns the exact Prepared of the region, building it on first
// use. Concurrent first calls may prepare twice; one result wins and both
// are correct.
func (l *LoD) Exact() *Prepared {
	if p := l.exact.Load(); p != nil {
		return p
	}
	p, err := Prepare(l.simp.Name, l.orig)
	if err != nil {
		// Unreachable: planLoD already counted the same region's edges.
		panic(fmt.Sprintf("core: exact re-preparation of %q failed: %v", l.simp.Name, err))
	}
	if l.exact.CompareAndSwap(nil, p) {
		return p
	}
	return l.exact.Load()
}

// planLoD decides whether a region gets a level-of-detail side and builds
// it: nil for a region that is neither simplified nor strip-sized, whose
// plain exact Prepared (from the world's slab) is then all there is.
func planLoD(name string, r geom.Region, opt LoDOptions) (*LoD, error) {
	edges := r.NumEdges()
	if edges < opt.minEdges() && edges < stripMinEdges {
		return nil, nil
	}
	norm := r.Clockwise()
	simplified, eps := norm, 0.0
	box := norm.BoundingBox()
	if w, h := box.Width(), box.Height(); w > 0 && h > 0 && edges >= opt.minEdges() {
		if e := opt.epsFrac() * min(w, h); e > 0 {
			// Kept only when an edge was dropped (otherwise the tier
			// degrades to exact for free) and — defensively — when every
			// per-polygon box survived: the anchored simplifier guarantees
			// that, and if it ever broke, every box-derived answer would be
			// silently wrong.
			s := geom.SimplifyRegion(norm, e)
			kept := s.NumEdges() != edges
			for i := range s {
				kept = kept && s[i].BoundingBox() == norm[i].BoundingBox()
			}
			if kept {
				simplified, eps = s, e
			}
		}
	}
	if eps == 0 && edges < stripMinEdges {
		return nil, nil
	}
	simp, err := Prepare(name, simplified)
	if err != nil {
		return nil, err
	}
	l := &LoD{Eps: eps, simp: simp, orig: r, origEdges: edges}
	if eps == 0 {
		l.exact.Store(simp)
		return l, nil
	}
	// The original's areas and band-path gate, replicating fill's
	// arithmetic over the normalised rings so the values are bit-identical
	// to what the exact Prepared holds: the fast paths answer from these
	// and must match the exact kernel exactly.
	simp.fastOK, simp.totalArea = true, 0
	for pi, poly := range norm {
		area := poly.Area()
		simp.polys[pi].area = area
		simp.totalArea += area
		if area == 0 {
			simp.fastOK = false
		}
		for i := range poly {
			if e := poly.Edge(i); e.A.Eq(e.B) {
				simp.fastOK = false
			}
		}
	}
	return l, nil
}

// relateSimplified attempts to answer the pair from the simplified boundary
// alone via the certain/possible bracket of the file comment (fact 2): one
// pass over the simplified edges, splitting each on the grid lines exactly
// as the kernel would, accumulating the cells its sub-segments certainly
// mark (midpoint at per-axis depth > eps) and possibly mark (eps-expanded
// span touches the cell). Equal masks pin the exact kernel's boundary
// marks; tile B's center test is then replayed on the simplified rings
// under the 2·eps clearance of fact 3. ok is false when the masks differ,
// the center clearance fails, or the reference grid is too narrow for
// middle cells to ever certify.
func (l *LoD) relateSimplified(g Grid, center geom.Point) (Relation, bool) {
	eps := l.Eps
	m1, m2, l1, l2 := g.M1, g.M2, g.L1, g.L2
	if m2-m1 <= 2*eps || l2-l1 <= 2*eps {
		return 0, false // middle cells can never reach depth > eps
	}
	var certain, possible Relation
	centerClear := true
	marginSq := 4 * eps * eps
	cx, cy := center.X, center.Y
	ax, ay, bx, by := l.simp.ax, l.simp.ay, l.simp.bx, l.simp.by
	var qx, qy [6]float64
	inf := math.Inf(1)
	colLo := [3]float64{-inf, m1, m2}
	colHi := [3]float64{m1, m2, inf}
	rowLo := [3]float64{-inf, l1, l2}
	rowHi := [3]float64{l1, l2, inf}
	for i := range ax {
		x0, y0, x1, y1 := ax[i], ay[i], bx[i], by[i]
		if centerClear && distSqPointSeg(cx, cy, x0, y0, x1, y1) <= marginSq {
			centerClear = false
		}
		lox, hix := x0, x1
		if lox > hix {
			lox, hix = hix, lox
		}
		loy, hiy := y0, y1
		if loy > hiy {
			loy, hiy = hiy, loy
		}
		cnt := 1
		if (hix <= m1 || lox >= m1) && (hix <= m2 || lox >= m2) &&
			(hiy <= l1 || loy >= l1) && (hiy <= l2 || loy >= l2) {
			qx[0], qy[0], qx[1], qy[1] = x0, y0, x1, y1
		} else {
			cnt = splitEdgeInto(m1, m2, l1, l2, x0, y0, x1, y1, &qx, &qy)
		}
		for k := 0; k < cnt; k++ {
			sx, sy := qx[k], qy[k]
			dx, dy := qx[k+1]-sx, qy[k+1]-sy
			// Parametric slab clipping of the sub-segment against each
			// cell: possible uses the cell expanded by eps per axis (the
			// Minkowski sum with the eps-square covers every point within
			// Euclidean eps), certain the cell shrunk by eps, verified
			// strictly at a witness point so boundary ties never slip in.
			for c := 0; c < 3; c++ {
				pxa, pxb, ok := axisT(sx, dx, colLo[c]-eps, colHi[c]+eps)
				if !ok {
					continue
				}
				cxa, cxb, cxok := axisT(sx, dx, colLo[c]+eps, colHi[c]-eps)
				for r := 0; r < 3; r++ {
					pya, pyb, ok := axisT(sy, dy, rowLo[r]-eps, rowHi[r]+eps)
					if !ok || pxa > pyb || pya > pxb {
						continue
					}
					possible |= 1 << tileGrid[r][c]
					if !cxok {
						continue
					}
					cya, cyb, ok := axisT(sy, dy, rowLo[r]+eps, rowHi[r]-eps)
					if !ok || cxa > cyb || cya > cxb {
						continue
					}
					tm := (max(cxa, cya) + min(cxb, cyb)) / 2
					wx, wy := sx+tm*dx, sy+tm*dy
					if wx > colLo[c]+eps && wx < colHi[c]-eps &&
						wy > rowLo[r]+eps && wy < rowHi[r]-eps {
						certain |= 1 << tileGrid[r][c]
					}
				}
			}
		}
	}
	if certain != possible {
		return 0, false
	}
	rel := certain
	if !rel.Has(TileB) {
		if !centerClear {
			return 0, false
		}
		// addCenterTile's rule over the simplified rings: sound under the
		// 2·eps center clearance (fact 3), box gate exact (fact 1).
		for i := range l.simp.polys {
			if l.simp.polys[i].box.Contains(center) && l.simp.polyContains(i, center) {
				rel = rel.With(TileB)
				break
			}
		}
	}
	return rel, true
}

// axisT returns the closed sub-range [t0, t1] ⊆ [0, 1] of the parametric
// point p0 + t·d lying inside [lo, hi] on one axis; ok is false when the
// range is empty. Infinite bounds are welcome.
func axisT(p0, d, lo, hi float64) (float64, float64, bool) {
	if d == 0 {
		if p0 < lo || p0 > hi {
			return 0, 0, false
		}
		return 0, 1, true
	}
	t0 := (lo - p0) / d
	t1 := (hi - p0) / d
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 > 1 {
		t1 = 1
	}
	if t0 > t1 {
		return 0, 0, false
	}
	return t0, t1, true
}

// distSqPointSeg returns the squared distance from (px,py) to the segment
// (x0,y0)→(x1,y1).
func distSqPointSeg(px, py, x0, y0, x1, y1 float64) float64 {
	dx, dy := x1-x0, y1-y0
	l2 := dx*dx + dy*dy
	if l2 > 0 {
		t := ((px-x0)*dx + (py-y0)*dy) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		x0 += t * dx
		y0 += t * dy
	}
	ex, ey := px-x0, py-y0
	return ex*ex + ey*ey
}
