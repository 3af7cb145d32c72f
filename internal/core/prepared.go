package core

import (
	"errors"
	"fmt"

	"cardirect/internal/geom"
)

// ErrDegenerateRegion is returned (wrapped, with the region's name where it
// has one) when a region cannot participate in relation computation: it has
// no polygons, its polygons contribute no edges, or — for percentages — it
// has no area. Callers can test for it with errors.Is.
var ErrDegenerateRegion = errors.New("core: degenerate region")

// Prepared is a region preprocessed once for repeated cardinal direction
// computation. It holds each fact Compute-CDR needs on either side of a
// relation exactly once: the edges of the canonical clockwise orientation,
// flattened into a struct-of-arrays coordinate layout (four flat float64
// slices the split and trapezoid kernels stream through), per-polygon
// bounding boxes and areas (the MBB fast paths), and the region box — whose
// four numbers ARE the reference-side grid. The input rings are not
// retained: polygon k's vertices are ax/ay[polyOff[k]:polyOff[k+1]], and
// Region materialises them on demand. The O(n²) all-pairs batch thus pays
// the per-region preprocessing exactly once per region instead of once per
// pair. A Prepared value is immutable after construction and safe to share
// across goroutines.
type Prepared struct {
	// Name identifies the region in batch results and error messages.
	Name string
	// Box is the region's minimum bounding box.
	Box geom.Rect

	// Struct-of-arrays edge layout: edge i runs from (ax[i], ay[i]) to
	// (bx[i], by[i]), in polygon ring order. Splitting and trapezoid
	// accumulation iterate these flat slices instead of a []geom.Segment,
	// which keeps the hot loops in registers and lets one cache line carry
	// eight coordinates of the same stream. The four slices are sub-slices
	// of one backing block, so a whole region's edges are one allocation —
	// and a whole PrepareAll batch's are one, too.
	ax, ay, bx, by []float64
	// polyOff delimits each polygon's edges: polygon k owns edge indices
	// polyOff[k] up to polyOff[k+1]. len(polyOff) == len(polys)+1.
	polyOff []int32

	polys     []preparedPoly // per-polygon metadata, in input order
	noGrid    bool           // Box is degenerate: unusable as a reference
	fastOK    bool           // polygons are sound enough for the band fast path
	totalArea float64        // summed polygon areas, for the percent fast path
}

type preparedPoly struct {
	box  geom.Rect
	area float64 // the polygon's area, cached for the percent fast path
}

// countEdges returns r's total edge count — the size of the coordinate
// block its preparation needs — or a wrapped ErrDegenerateRegion when the
// region has no polygons or no edges, inputs for which Compute-CDR has no
// answer.
func countEdges(name string, r geom.Region) (int, error) {
	if len(r) == 0 {
		return 0, fmt.Errorf("core: region %q is empty: %w", name, ErrDegenerateRegion)
	}
	total := r.NumEdges()
	if total == 0 {
		return 0, fmt.Errorf("core: region %q has no edges: %w", name, ErrDegenerateRegion)
	}
	return total, nil
}

// Prepare preprocesses a region for repeated relation computation. It fails
// with a wrapped ErrDegenerateRegion when the region has no polygons or no
// edges. The result owns its storage, so it is reclaimed on its own — what
// a store that replaces regions one by one needs; PrepareAll is the bulk
// form.
func Prepare(name string, r geom.Region) (*Prepared, error) {
	total, err := countEdges(name, r)
	if err != nil {
		return nil, err
	}
	p := new(Prepared)
	p.fill(name, r, make([]float64, 4*total), make([]int32, len(r)+1), make([]preparedPoly, len(r)))
	return p, nil
}

// fill builds p over r in the storage handed to it, sized from r: coords
// holds four float64s per edge, polyOff one int32 per polygon plus one,
// polys one entry per polygon. Each ring is written straight into the
// coordinate block in the canonical clockwise orientation — following
// geom.Polygon.Clockwise's rule, without materialising the reversed ring —
// and the per-polygon facts are then computed from the block in ring order,
// so they are bit-identical to what the geom methods return for the
// normalised ring.
func (p *Prepared) fill(name string, r geom.Region, coords []float64, polyOff []int32, polys []preparedPoly) {
	total := len(coords) / 4
	p.Name = name
	p.fastOK = true
	// The capped three-index slices keep an append on one stream from
	// bleeding into the next (and into a neighbouring region's block when
	// the storage is a shared slab).
	p.ax = coords[0:total:total]
	p.ay = coords[total : 2*total : 2*total]
	p.bx = coords[2*total : 3*total : 3*total]
	p.by = coords[3*total : 4*total : 4*total]
	p.polyOff = polyOff
	p.polys = polys

	box := geom.EmptyRect()
	k := 0
	for pi, poly := range r {
		polyOff[pi] = int32(k)
		n := len(poly)
		ax, ay, bx, by := p.ax[k:k+n], p.ay[k:k+n], p.bx[k:k+n], p.by[k:k+n]
		if sa := poly.SignedArea(); n < 3 || sa > 0 || sa == 0 {
			for i, v := range poly {
				ax[i], ay[i] = v.X, v.Y
			}
		} else {
			for i, v := range poly {
				ax[n-1-i], ay[n-1-i] = v.X, v.Y
			}
		}
		var area float64
		pb := geom.EmptyRect()
		for i := range ax {
			j := i + 1
			if j == n {
				j = 0
			}
			bx[i], by[i] = ax[j], ay[j]
			if ax[i] == bx[i] && ay[i] == by[i] {
				p.fastOK = false // zero-length edges break the band derivation
			}
			area += (bx[i] - ax[i]) * (ay[i] + by[i]) / 2
			pb = pb.ExtendPoint(geom.Point{X: ax[i], Y: ay[i]})
		}
		area = abs(area)
		if area == 0 || pb.MinX == pb.MaxX || pb.MinY == pb.MaxY {
			// Degenerate rings violate the orientation invariant; a flat
			// ring is one whatever float residue its area sum carries.
			p.fastOK = false
		}
		box = box.Union(pb)
		polys[pi] = preparedPoly{box: pb, area: area}
		p.totalArea += area
		k += n
	}
	polyOff[len(r)] = int32(k)
	p.Box = box
	_, err := NewGrid(box)
	p.noGrid = err != nil
}

// PrepareAll preprocesses a batch of named regions, enforcing the batch
// naming contract (non-empty, unique names). The batch is counted first and
// built in four exact-size blocks — the Prepared values, the coordinates,
// the polygon metadata, the offsets — so a 10^5-region world costs a
// constant number of allocations and not a byte of slack. The flip side:
// the batch is reclaimed only as a whole, once every Prepared of it is
// unreachable; prepare regions with independent lifetimes through Prepare.
func PrepareAll(regions []NamedRegion) ([]*Prepared, error) {
	if _, err := indexNames(len(regions), func(i int) string { return regions[i].Name }); err != nil {
		return nil, err
	}
	var nPolys, nEdges int
	for _, r := range regions {
		edges, err := countEdges(r.Name, r.Region)
		if err != nil {
			return nil, err
		}
		nPolys += len(r.Region)
		nEdges += edges
	}
	out := make([]*Prepared, len(regions))
	preps := make([]Prepared, len(regions))
	coords := make([]float64, 4*nEdges)
	polys := make([]preparedPoly, nPolys)
	offs := make([]int32, nPolys+len(regions))
	for i, r := range regions {
		np, nc := len(r.Region), 4*r.Region.NumEdges()
		out[i] = &preps[i]
		out[i].fill(r.Name, r.Region, coords[:nc:nc], offs[:np+1:np+1], polys[:np:np])
		coords, offs, polys = coords[nc:], offs[np+1:], polys[np:]
	}
	return out, nil
}

// Region materialises the region in the canonical clockwise orientation
// from the coordinate streams, as fresh slices.
func (p *Prepared) Region() geom.Region {
	out := make(geom.Region, len(p.polys))
	for k := range out {
		lo, hi := p.polyOff[k], p.polyOff[k+1]
		ring := make(geom.Polygon, hi-lo)
		for i := range ring {
			ring[i] = geom.Point{X: p.ax[int(lo)+i], Y: p.ay[int(lo)+i]}
		}
		out[k] = ring
	}
	return out
}

// NumEdges returns the region's total edge count (k in the paper's bounds).
func (p *Prepared) NumEdges() int { return len(p.ax) }

// Edges materialises the region's edges as one fresh slice in polygon ring
// order. The canonical storage is the struct-of-arrays coordinate layout;
// this accessor exists for callers that want segment values (tests, debug
// output), not for hot paths.
func (p *Prepared) Edges() []geom.Segment {
	out := make([]geom.Segment, len(p.ax))
	for i := range out {
		out[i] = geom.Segment{
			A: geom.Point{X: p.ax[i], Y: p.ay[i]},
			B: geom.Point{X: p.bx[i], Y: p.by[i]},
		}
	}
	return out
}

// Grid returns the nine-tile grid induced by the region's bounding box, or
// an error when the box is degenerate and the region cannot serve as a
// reference (it can still be a primary).
func (p *Prepared) Grid() (Grid, error) { return p.grid(), p.gridErr() }

// grid is the reference-side grid. Meaningful only when noGrid is unset.
func (p *Prepared) grid() Grid { return boxGrid(p.Box) }

// boxGrid is NewGrid without the validation: the four lines of a box known
// to be non-degenerate, which is all NewGrid copies out of it.
func boxGrid(b geom.Rect) Grid {
	return Grid{M1: b.MinX, M2: b.MaxX, L1: b.MinY, L2: b.MaxY}
}

// gridErr is NewGrid's complaint about a degenerate Box, rebuilt on this
// cold path instead of carried by every region; nil for a usable reference.
func (p *Prepared) gridErr() error {
	if !p.noGrid {
		return nil
	}
	_, err := NewGrid(p.Box)
	return err
}

// Scratch holds the reusable buffers of one computation thread: the
// primary of the one-shot ComputeCDR/ComputeCDRPct, prepared into storage
// that outlives the call, and the strip-stage scratch of the LoD tier. The
// exact kernels behind Relate and RelatePct need none. Each worker of a
// parallel LoD batch owns its own Scratch; sharing one across goroutines is
// a data race. The zero value is ready to use.
type Scratch struct {
	// The one-shot primary (Scratch.primary): prim is filled over coords,
	// prim.polyOff and prim.polys, whose capacity carries over from call to
	// call up to putScratch's cap.
	prim   Prepared
	coords []float64

	// Strip-stage scratch (lod_strip.go): epoch-stamped candidate
	// de-duplication, the gathered edge ids, and per-polygon parity
	// accumulators for the center query.
	stripSeen   []uint32
	stripEpoch  uint32
	stripIDs    []int32
	polyMark    []uint8
	polyTouched []int32
}

// Relate computes the cardinal direction relation a R b of the primary a
// against the reference b — equivalent to ComputeCDR(a.Region, b.Region) but
// with all per-region work already paid, and with the MBB fast path applied
// when a's bounding box permits it. The Scratch is not used — the kernel
// keeps its working set in registers — and may be nil.
func Relate(a, b *Prepared, _ *Scratch) (Relation, error) {
	if b.noGrid {
		return 0, b.gridErr()
	}
	return a.relate(b.grid(), false, nil), nil
}

// RelateGrid computes the relation of the primary region against an
// arbitrary reference grid. The Scratch is not used and may be nil.
func (p *Prepared) RelateGrid(g Grid, _ *Scratch) Relation {
	return p.relate(g, false, nil)
}

// relate dispatches between the MBB fast path and the full edge-splitting
// algorithm. The result is always a valid (non-empty) relation: Prepare
// guarantees at least one edge exists.
func (p *Prepared) relate(g Grid, noPrune bool, st *Stats) Relation {
	if !noPrune {
		if rel, ok := p.relateFast(g, st); ok {
			return rel
		}
	}
	return p.relateFull(g, st)
}

// strictCol returns the grid column strictly containing the box — the box
// touches no vertical grid line — or -1 when the box spans or touches one.
func strictCol(b geom.Rect, g Grid) int {
	switch {
	case b.MaxX < g.M1:
		return 0
	case b.MinX > g.M2:
		return 2
	case b.MinX > g.M1 && b.MaxX < g.M2:
		return 1
	}
	return -1
}

// strictRow is the row analogue of strictCol.
func strictRow(b geom.Rect, g Grid) int {
	switch {
	case b.MaxY < g.L1:
		return 0
	case b.MinY > g.L2:
		return 2
	case b.MinY > g.L1 && b.MaxY < g.L2:
		return 1
	}
	return -1
}

// relateFast answers the relation from bounding boxes alone, with zero edge
// splits, when mbb(primary) avoids enough grid lines to make the answer
// exact:
//
//   - mbb strictly inside a single tile: every point of the primary lies
//     strictly inside that tile, so the relation is that tile — O(1).
//   - mbb strictly inside a single column (or row): no edge can cross the
//     two vertical (horizontal) grid lines, so the relation is the fixed
//     column crossed with the rows each polygon's own bounding box spans —
//     O(#polygons). This covers every strictly-disjoint pair (boxes
//     separated on x or y yield at most 3 adjacent perimeter tiles) and
//     also primaries threading through the middle column or row.
//
// The row derivation per polygon is exact for simple clockwise rings: a
// ring's boundary projects onto the full interval [MinY, MaxY], so it has
// sub-segments strictly below y = l1 iff MinY < l1, strictly above y = l2
// iff MaxY > l2, and strictly between iff the open band overlaps (MinY,
// MaxY) — and an on-line horizontal edge is classified by the interior-side
// rule to the side its polygon's area lies on, matching the same strict
// inequalities. Regions with zero-area rings or zero-length edges (fastOK
// unset) skip the band path, because they break that argument; the
// single-tile path needs no such invariant.
func (p *Prepared) relateFast(g Grid, st *Stats) (Relation, bool) {
	col := strictCol(p.Box, g)
	row := strictRow(p.Box, g)
	if col >= 0 && row >= 0 {
		if st != nil {
			st.PruneSingleTile++
		}
		return Rel(TileAt(col, row)), true
	}
	if !p.fastOK {
		return 0, false
	}
	if col >= 0 {
		var rel Relation
		for i := range p.polys {
			b := p.polys[i].box
			if b.MinY < g.L1 {
				rel = rel.With(TileAt(col, 0))
			}
			if b.MinY < g.L2 && b.MaxY > g.L1 {
				rel = rel.With(TileAt(col, 1))
			}
			if b.MaxY > g.L2 {
				rel = rel.With(TileAt(col, 2))
			}
		}
		if st != nil {
			st.PruneBand++
		}
		return rel, true
	}
	if row >= 0 {
		var rel Relation
		for i := range p.polys {
			b := p.polys[i].box
			if b.MinX < g.M1 {
				rel = rel.With(TileAt(0, row))
			}
			if b.MinX < g.M2 && b.MaxX > g.M1 {
				rel = rel.With(TileAt(1, row))
			}
			if b.MaxX > g.M2 {
				rel = rel.With(TileAt(2, row))
			}
		}
		if st != nil {
			st.PruneBand++
		}
		return rel, true
	}
	return 0, false
}

// relateFull is the paper's Compute-CDR over the struct-of-arrays edge
// layout: one pass over the flat coordinate slices, splitting an edge on
// the grid lines only when its coordinate span actually straddles one
// (detected with four compares, no divisions), classifying each sub-segment
// by its endpoint span with interior-side tie-breaking, and adding tile B for
// polygons enclosing the reference box's center. The no-split case — the
// overwhelming majority of edges in batch workloads — runs branch-light
// with no Segment materialisation and no buffer traffic.
func (p *Prepared) relateFull(g Grid, st *Stats) Relation {
	var rel Relation
	m1, m2, l1, l2 := g.M1, g.M2, g.L1, g.L2
	ax, ay, bx, by := p.ax, p.ay, p.bx, p.by
	var qx, qy [6]float64
	outCount := 0
	for i := range ax {
		x0, y0, x1, y1 := ax[i], ay[i], bx[i], by[i]
		lox, hix := x0, x1
		if lox > hix {
			lox, hix = hix, lox
		}
		loy, hiy := y0, y1
		if loy > hiy {
			loy, hiy = hiy, loy
		}
		// An edge crosses x = m iff m lies strictly between its endpoint
		// x-coordinates (Definition 3: touching at an endpoint or lying on
		// the line is not a crossing), and likewise for horizontal lines —
		// so a span test per line decides "no split" without a division.
		if (hix <= m1 || lox >= m1) && (hix <= m2 || lox >= m2) &&
			(hiy <= l1 || loy >= l1) && (hiy <= l2 || loy >= l2) {
			outCount++
			rel |= 1 << tileGrid[classifyRow(l1, l2, loy, hiy, x1-x0)][classifyCol(m1, m2, lox, hix, y1-y0)]
			continue
		}
		cnt := splitEdgeInto(m1, m2, l1, l2, x0, y0, x1, y1, &qx, &qy)
		outCount += cnt
		for k := 0; k < cnt; k++ {
			sx0, sy0, sx1, sy1 := qx[k], qy[k], qx[k+1], qy[k+1]
			rel |= 1 << tileGrid[classifyRow(l1, l2, min(sy0, sy1), max(sy0, sy1), sx1-sx0)][classifyCol(m1, m2, min(sx0, sx1), max(sx0, sx1), sy1-sy0)]
		}
	}
	if st != nil {
		// Every edge contributes at least one sub-segment, so the split
		// count is the surplus over the edge count.
		st.EdgesIn += len(ax)
		st.EdgeVisits += len(ax)
		st.EdgesOut += outCount
		st.Intersections += outCount - len(ax)
	}
	return p.addCenterTile(rel, g, st)
}

// addCenterTile adds tile B for polygons enclosing the reference box's
// center — the shared tail of the full kernels. The center test is skipped
// once B is present and rejected early through the per-polygon bounding box.
func (p *Prepared) addCenterTile(rel Relation, g Grid, st *Stats) Relation {
	if rel.Has(TileB) {
		return rel
	}
	center := g.Box().Center()
	for i := range p.polys {
		if !p.polys[i].box.Contains(center) {
			continue
		}
		if st != nil {
			st.PointInPoly++
		}
		if p.polyContains(i, center) {
			return rel.With(TileB)
		}
	}
	return rel
}

// polyContains is geom.Polygon.Contains for polygon k, read from the
// coordinate streams: q lies inside the ring or on its boundary, by the
// even–odd ray rule with points on an edge or vertex reported as contained.
// Every expression mirrors the geom method, so the two agree bit for bit
// (TestPolyContainsDifferential).
func (p *Prepared) polyContains(k int, q geom.Point) bool {
	lo, hi := p.polyOff[k], p.polyOff[k+1]
	if hi-lo < 3 {
		return false
	}
	inside := false
	for i := lo; i < hi; i++ {
		x0, y0, x1, y1 := p.ax[i], p.ay[i], p.bx[i], p.by[i]
		// Boundary first: collinear and within the edge's box.
		if geom.Orient(geom.Point{X: x0, Y: y0}, geom.Point{X: x1, Y: y1}, q) == 0 &&
			min(x0, x1) <= q.X && q.X <= max(x0, x1) &&
			min(y0, y1) <= q.Y && q.Y <= max(y0, y1) {
			return true
		}
		// Even–odd crossing of the horizontal ray from q to +∞.
		if (y0 > q.Y) != (y1 > q.Y) {
			if xAt := x0 + (q.Y-y0)/(y1-y0)*(x1-x0); xAt > q.X {
				inside = !inside
			}
		}
	}
	return inside
}

// splitEdgeInto cuts the edge (x0,y0)→(x1,y1) at its proper crossings with
// the four grid lines and writes the resulting polyline vertices into
// (qx,qy): entry 0 is the edge start, entry cnt is the edge end, and the cnt
// sub-segments run between consecutive vertices. It is the paper
// transcription's Grid.SplitEdge (transcription_test.go) working in raw
// coordinates — same crossing tests, same insertion order and sort, same
// corner coalescing and degenerate-piece skipping, the same exact on-line
// snapping — minus the Segment materialisation and buffer traffic, so the
// SoA kernels split without leaving their register file.
// Finite coordinates assumed (the geometry layer validates them).
func splitEdgeInto(m1, m2, l1, l2, x0, y0, x1, y1 float64, qx, qy *[6]float64) int {
	var ts [4]float64
	var cs [4]float64
	var vert [4]bool
	n := 0
	dx := x1 - x0
	dy := y1 - y0
	// Candidate cuts in SplitEdge's insertion order (M1, M2, L1, L2), so the
	// stable insertion sort below resolves equal parameters identically.
	if dx != 0 {
		if t := (m1 - x0) / dx; t > 0 && t < 1 {
			ts[n], cs[n], vert[n] = t, m1, true
			n++
		}
		if t := (m2 - x0) / dx; t > 0 && t < 1 {
			ts[n], cs[n], vert[n] = t, m2, true
			n++
		}
	}
	if dy != 0 {
		if t := (l1 - y0) / dy; t > 0 && t < 1 {
			ts[n], cs[n], vert[n] = t, l1, false
			n++
		}
		if t := (l2 - y0) / dy; t > 0 && t < 1 {
			ts[n], cs[n], vert[n] = t, l2, false
			n++
		}
	}
	qx[0], qy[0] = x0, y0
	if n == 0 {
		qx[1], qy[1] = x1, y1
		return 1
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
			cs[j], cs[j-1] = cs[j-1], cs[j]
			vert[j], vert[j-1] = vert[j-1], vert[j]
		}
	}
	// Materialise cut points — coalescing a vertical/horizontal pair with
	// (nearly) equal parameters into the exact grid corner, as SplitEdge
	// does — and drop degenerate pieces by skipping repeated vertices.
	const cornerEps = 1e-12
	cnt := 0
	prevx, prevy := x0, y0
	for i := 0; i < n; i++ {
		var cx, cy float64
		if i+1 < n && vert[i] != vert[i+1] && ts[i+1]-ts[i] <= cornerEps {
			cx, cy = cs[i], cs[i+1]
			if !vert[i] {
				cx, cy = cy, cx
			}
			i++
		} else if vert[i] {
			cx, cy = cs[i], y0+ts[i]*(y1-y0)
		} else {
			cx, cy = x0+ts[i]*(x1-x0), cs[i]
		}
		if cx != prevx || cy != prevy {
			cnt++
			qx[cnt], qy[cnt] = cx, cy
			prevx, prevy = cx, cy
		}
	}
	if x1 != prevx || y1 != prevy {
		cnt++
		qx[cnt], qy[cnt] = x1, y1
	}
	return cnt
}

// classifyCol returns the grid column of a sub-segment known not to cross a
// vertical grid line, from its x-span [lo, hi] and its y-direction dy — what
// the transcription's Grid.ClassifySegment decides, over raw coordinates,
// small enough for the inliner. A segment lying on a line (lo == hi == m)
// goes to the side of the polygon's interior, to the right of A→B under the
// canonical clockwise orientation: on the west line that is east exactly
// when the segment runs northbound (dy > 0), and symmetrically on the east
// line. Any other segment is decided by its span, not its rounded midpoint:
// a piece reaching 1 ulp across a line belongs to the far side, however
// small.
func classifyCol(m1, m2, lo, hi, dy float64) int {
	if lo == hi && dy != 0 {
		if lo == m1 {
			if dy > 0 {
				return 1
			}
			return 0
		}
		if lo == m2 {
			if dy > 0 {
				return 2
			}
			return 1
		}
	}
	if lo < m1 {
		return 0
	}
	if hi > m2 {
		return 2
	}
	return 1
}

// classifyRow is the row analogue of classifyCol: a segment on the south
// line has its interior south of the line exactly when it runs eastbound
// (dx > 0), and symmetrically on the north line.
func classifyRow(l1, l2, lo, hi, dx float64) int {
	if lo == hi && dx != 0 {
		if lo == l1 {
			if dx > 0 {
				return 0
			}
			return 1
		}
		if lo == l2 {
			if dx > 0 {
				return 1
			}
			return 2
		}
	}
	if lo < l1 {
		return 0
	}
	if hi > l2 {
		return 2
	}
	return 1
}
