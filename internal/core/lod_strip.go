package core

import (
	"sort"
	"sync"

	"cardirect/internal/geom"
)

// Strip stage of the huge-world tier stack: classify ONLY the edges whose
// coordinate intervals meet the reference grid's band [m1,m2] (x) or [l1,l2]
// (y), recover the corner cells from vertex dominance, and tile B's parity
// from a bucketed line query. It is the paper's pass restricted to the edges
// that can matter — exact geometry, no tolerance anywhere — and its answer is
// bit-identical to the full kernel's whenever it reports ok. It decides the
// canonical huge-world pair: a giant primary whose bounding box straddles a
// tiny reference, where the full kernel would stream thousands of edges for
// a handful of grid-line crossings.
//
// Exactness: partition the edges into E* (x-interval ∩ [m1,m2] ≠ ∅ or
// y-interval ∩ [l1,l2] ≠ ∅) and the rest. A non-E* edge has its x-interval
// strictly left of m1 or right of m2 AND its y-interval strictly below l1 or
// above l2 — it lies wholly inside one OPEN corner quadrant, is never split,
// and its midpoint marks exactly that corner. Conversely a vertex strictly
// inside an open corner quadrant always makes the kernel mark that corner:
// the crossing-free sub-segment incident to it stays in the closed quadrant
// and is not along one of its lines (it has a point strictly inside), so
// classifyCol/Row place it there with no tie-break. So
//
//	kernel boundary marks = classify(E*) ∪ { corner c : some vertex lies
//	                        strictly inside c's open quadrant }
//
// where classify(E*) is the kernel's own split-and-classify loop run over
// E* alone (every mark it produces is a true mark, and all non-corner
// marks come from E*: a sub-segment whose midpoint classifies into the
// middle column has x-interval meeting [m1,m2], likewise middle row). The
// vertex condition is answered by four monotone staircases over the
// vertices sorted by x. Tile B's center test replays Polygon.Contains'
// per-edge rule over the edges of one y-bucket: edges whose y-interval
// misses the center's y neither toggle the ray parity nor can carry the
// center, so restricting to a bucket provably containing every straddling
// edge changes nothing.
//
// A reference whose band meets more than half the edges (giant-vs-giant)
// is declined — the full kernel's sequential streaming wins there.

// stripMinEdges is the edge count below which the strip stage is not
// attempted: the full kernel over a few dozen edges is cheaper than
// building and probing the index.
const stripMinEdges = 128

// stripIndex is the per-region acceleration structure of the strip stage:
// interval buckets over each axis, vertex staircases for the
// corner-quadrant queries, and the edge→polygon map for the parity query.
// Everything but p is built by the first relateStrip and immutable after.
type stripIndex struct {
	p    *Prepared // the world's preparation the index answers for
	once sync.Once // guards build

	// Interval buckets: bucket b of the x axis lists (in xids[xoff[b]:
	// xoff[b+1]]) every edge whose x-interval overlaps the bucket's range.
	// An edge spanning k buckets appears k times; queries de-duplicate
	// with an epoch array. invXW is 1/bucketWidth (0 for a degenerate
	// axis, which collapses to one bucket).
	nbX         int
	xorg, invXW float64
	xoff        []int32
	xids        []int32
	nbY         int
	yorg, invYW float64
	yoff        []int32
	yids        []int32

	// Vertex staircases: vertices sorted by x with running extremes of y
	// from the left (pre…) and from the right (suf…). existsNW(m1, l2) is
	// "some vertex has x < m1 and y > l2" = preMaxY[last x < m1] > l2, and
	// symmetrically for the other corners.
	vx                                 []float64
	preMaxY, preMinY, sufMaxY, sufMinY []float64

	// polyOf maps an edge to its polygon for the parity query; −1 marks
	// polygons Polygon.Contains rejects outright (fewer than 3 vertices).
	polyOf []int32
}

// build fills the index from ix.p; relateStrip runs it once.
func (ix *stripIndex) build() {
	p := ix.p
	ax, ay, bx, by := p.streams()
	ne := len(ax)
	ix.nbX, ix.xorg, ix.invXW, ix.xoff, ix.xids =
		buildIntervalBuckets(ax, bx, p.Box.MinX, p.Box.MaxX)
	ix.nbY, ix.yorg, ix.invYW, ix.yoff, ix.yids =
		buildIntervalBuckets(ay, by, p.Box.MinY, p.Box.MaxY)

	// Vertices: every edge start is a ring vertex and every ring vertex
	// starts exactly one edge.
	ord := make([]int32, ne)
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool { return ax[ord[a]] < ax[ord[b]] })
	ix.vx = make([]float64, ne)
	vy := make([]float64, ne)
	for i, id := range ord {
		ix.vx[i] = ax[id]
		vy[i] = ay[id]
	}
	ix.preMaxY = make([]float64, ne)
	ix.preMinY = make([]float64, ne)
	ix.sufMaxY = make([]float64, ne)
	ix.sufMinY = make([]float64, ne)
	for i := 0; i < ne; i++ {
		maxY, minY := vy[i], vy[i]
		if i > 0 {
			if ix.preMaxY[i-1] > maxY {
				maxY = ix.preMaxY[i-1]
			}
			if ix.preMinY[i-1] < minY {
				minY = ix.preMinY[i-1]
			}
		}
		ix.preMaxY[i], ix.preMinY[i] = maxY, minY
	}
	for i := ne - 1; i >= 0; i-- {
		maxY, minY := vy[i], vy[i]
		if i < ne-1 {
			if ix.sufMaxY[i+1] > maxY {
				maxY = ix.sufMaxY[i+1]
			}
			if ix.sufMinY[i+1] < minY {
				minY = ix.sufMinY[i+1]
			}
		}
		ix.sufMaxY[i], ix.sufMinY[i] = maxY, minY
	}

	ix.polyOf = make([]int32, ne)
	for pi := range p.polys {
		id := int32(pi)
		lo, hi := p.polyEdges(pi)
		if hi-lo < 3 {
			id = -1
		}
		for e := lo; e < hi; e++ {
			ix.polyOf[e] = id
		}
	}
}

// buildIntervalBuckets lays the edges' per-axis intervals into uniform
// buckets over [lo, hi]. The bucket count starts at the edge count (≈ one
// average edge extent per bucket) and shrinks if wide edges would inflate
// the duplicated-id total past 8× the edge count, keeping the index linear
// in the region size no matter the shape.
func buildIntervalBuckets(a, b []float64, lo, hi float64) (nb int, org, invW float64, off, ids []int32) {
	ne := len(a)
	nb = min(max(ne, 1), 4096)
	for {
		w := (hi - lo) / float64(nb)
		if !(w > 0) {
			nb = 1
			invW = 0
		} else {
			invW = 1 / w
		}
		total := 0
		for i := range a {
			b0, b1 := bucketSpan(a[i], b[i], lo, invW, nb)
			total += b1 - b0 + 1
		}
		if total <= 8*ne || nb == 1 {
			off = make([]int32, nb+1)
			for i := range a {
				b0, b1 := bucketSpan(a[i], b[i], lo, invW, nb)
				for bk := b0; bk <= b1; bk++ {
					off[bk+1]++
				}
			}
			for bk := 0; bk < nb; bk++ {
				off[bk+1] += off[bk]
			}
			ids = make([]int32, total)
			fill := make([]int32, nb)
			for i := range a {
				b0, b1 := bucketSpan(a[i], b[i], lo, invW, nb)
				for bk := b0; bk <= b1; bk++ {
					ids[off[bk]+fill[bk]] = int32(i)
					fill[bk]++
				}
			}
			return nb, lo, invW, off, ids
		}
		nb = max(nb*8*ne/total, 1)
	}
}

// bucketSpan returns the inclusive bucket range covered by the interval
// between coordinates u and v.
func bucketSpan(u, v, org, invW float64, nb int) (int, int) {
	if u > v {
		u, v = v, u
	}
	b0 := max(int((u-org)*invW), 0)
	return b0, max(min(int((v-org)*invW), nb-1), b0)
}

// relateStrip answers the pair from the strip index, or reports !ok when
// the candidate set exceeds half the edges (the full kernel wins there).
func (ix *stripIndex) relateStrip(g Grid, sc *Scratch) (Relation, bool) {
	ix.once.Do(ix.build)
	ax, ay, bx, by := ix.p.streams()
	ne := len(ax)
	if len(sc.stripSeen) < ne {
		sc.stripSeen = make([]uint32, ne)
		sc.stripEpoch = 0
	}
	sc.stripEpoch++
	if sc.stripEpoch == 0 { // epoch wrapped: stale stamps could collide
		clear(sc.stripSeen)
		sc.stripEpoch = 1
	}
	ids := sc.stripIDs[:0]
	budget := ne / 2
	ids, ok := ix.collect(ids, sc.stripSeen, sc.stripEpoch, g, budget)
	sc.stripIDs = ids[:0]
	if !ok {
		return 0, false
	}

	// The kernel's own split-and-classify loop, over E* alone.
	var rel Relation
	m1, m2, l1, l2 := g.M1, g.M2, g.L1, g.L2
	var qx, qy [6]float64
	for _, id := range ids {
		x0, y0, x1, y1 := ax[id], ay[id], bx[id], by[id]
		lox, hix := x0, x1
		if lox > hix {
			lox, hix = hix, lox
		}
		loy, hiy := y0, y1
		if loy > hiy {
			loy, hiy = hiy, loy
		}
		if (hix <= m1 || lox >= m1) && (hix <= m2 || lox >= m2) &&
			(hiy <= l1 || loy >= l1) && (hiy <= l2 || loy >= l2) {
			rel |= 1 << tileGrid[classifyRow(l1, l2, loy, hiy, x1-x0)][classifyCol(m1, m2, lox, hix, y1-y0)]
			continue
		}
		cnt := splitEdgeInto(m1, m2, l1, l2, x0, y0, x1, y1, &qx, &qy)
		for k := 0; k < cnt; k++ {
			sx0, sy0, sx1, sy1 := qx[k], qy[k], qx[k+1], qy[k+1]
			rel |= 1 << tileGrid[classifyRow(l1, l2, min(sy0, sy1), max(sy0, sy1), sx1-sx0)][classifyCol(m1, m2, min(sx0, sx1), max(sx0, sx1), sy1-sy0)]
		}
	}

	// Corner cells from the staircases (tileGrid row 0 = south).
	i := sort.SearchFloat64s(ix.vx, m1) // vertices with x < m1 are [0, i)
	if i > 0 {
		if ix.preMaxY[i-1] > l2 {
			rel |= 1 << tileGrid[2][0] // NW
		}
		if ix.preMinY[i-1] < l1 {
			rel |= 1 << tileGrid[0][0] // SW
		}
	}
	j := sort.Search(len(ix.vx), func(k int) bool { return ix.vx[k] > m2 })
	if j < len(ix.vx) {
		if ix.sufMaxY[j] > l2 {
			rel |= 1 << tileGrid[2][2] // NE
		}
		if ix.sufMinY[j] < l1 {
			rel |= 1 << tileGrid[0][2] // SE
		}
	}

	return ix.addCenterTileStrip(rel, g, sc), true
}

// collect gathers the de-duplicated ids of every edge whose x-interval
// meets [g.M1, g.M2] or whose y-interval meets [g.L1, g.L2]. ok is false
// once more than budget ids accumulate.
func (ix *stripIndex) collect(ids []int32, seen []uint32, epoch uint32, g Grid, budget int) ([]int32, bool) {
	p := ix.p
	ax, ay, bx, by := p.streams()
	if g.M2 >= p.Box.MinX && g.M1 <= p.Box.MaxX {
		b0, b1 := bucketSpan(g.M1, g.M2, ix.xorg, ix.invXW, ix.nbX)
		for bk := b0; bk <= b1; bk++ {
			for _, id := range ix.xids[ix.xoff[bk]:ix.xoff[bk+1]] {
				if seen[id] == epoch {
					continue
				}
				lo, hi := ax[id], bx[id]
				if lo > hi {
					lo, hi = hi, lo
				}
				if hi < g.M1 || lo > g.M2 {
					continue
				}
				seen[id] = epoch
				ids = append(ids, id)
				if len(ids) > budget {
					return ids, false
				}
			}
		}
	}
	if g.L2 >= p.Box.MinY && g.L1 <= p.Box.MaxY {
		b0, b1 := bucketSpan(g.L1, g.L2, ix.yorg, ix.invYW, ix.nbY)
		for bk := b0; bk <= b1; bk++ {
			for _, id := range ix.yids[ix.yoff[bk]:ix.yoff[bk+1]] {
				if seen[id] == epoch {
					continue
				}
				lo, hi := ay[id], by[id]
				if lo > hi {
					lo, hi = hi, lo
				}
				if hi < g.L1 || lo > g.L2 {
					continue
				}
				seen[id] = epoch
				ids = append(ids, id)
				if len(ids) > budget {
					return ids, false
				}
			}
		}
	}
	return ids, true
}

// addCenterTileStrip is addCenterTile answered from one y-bucket: it
// replays Polygon.Contains' per-edge rule (boundary hit or ray toggle)
// over the bucket provably holding every edge that straddles the center's
// y, accumulating per polygon under the same bounding-box gate.
func (ix *stripIndex) addCenterTileStrip(rel Relation, g Grid, sc *Scratch) Relation {
	if rel.Has(TileB) {
		return rel
	}
	p := ix.p
	center := g.Box().Center()
	if !p.Box.Contains(center) {
		return rel // no polygon box can pass the gate either
	}
	if n := len(p.polys); len(sc.polyMark) < n {
		sc.polyMark = make([]uint8, n)
	}
	mark := sc.polyMark
	touched := sc.polyTouched[:0]
	cx, cy := center.X, center.Y
	ax, ay, bx, by := p.streams()
	bk, _ := bucketSpan(cy, cy, ix.yorg, ix.invYW, ix.nbY)
	for _, id := range ix.yids[ix.yoff[bk]:ix.yoff[bk+1]] {
		pi := ix.polyOf[id]
		if pi < 0 {
			continue
		}
		pp := &p.polys[pi]
		if !pp.box.Contains(center) {
			continue
		}
		if mark[pi] == 0 {
			mark[pi] = 1
			touched = append(touched, pi)
		}
		x0, y0, x1, y1 := ax[id], ay[id], bx[id], by[id]
		if geom.Orient(geom.Pt(x0, y0), geom.Pt(x1, y1), center) == 0 &&
			min(x0, x1) <= cx && cx <= max(x0, x1) &&
			min(y0, y1) <= cy && cy <= max(y0, y1) {
			mark[pi] |= 2 // center on this polygon's boundary
		}
		if (y0 > cy) != (y1 > cy) {
			if xAt := x0 + (cy-y0)/(y1-y0)*(x1-x0); xAt > cx {
				mark[pi] ^= 4 // ray-crossing parity toggle
			}
		}
	}
	sc.polyTouched = touched
	for _, pi := range touched {
		if mark[pi]&6 != 0 {
			rel = rel.With(TileB)
		}
		mark[pi] = 0
	}
	return rel
}
