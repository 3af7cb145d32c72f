package core

import (
	"fmt"

	"cardirect/internal/geom"
)

// ComputeCDRPct implements Algorithm Compute-CDR% (Fig. 10 of the paper):
// it returns the cardinal direction relation with percentages between the
// primary region a and the reference region b as a PercentMatrix, together
// with the per-tile absolute areas it is derived from.
//
// Like Compute-CDR the algorithm makes a single pass over the edges of a,
// splitting each on the four mbb(b) lines. Instead of clipping polygons it
// accumulates, per tile, the trapezoid expressions against a tile-specific
// reference line chosen so that the virtual segments closing each tile piece
// contribute nothing: the west line x = m1 for the NW/W/SW column, the east
// line x = m2 for the NE/E/SE column, the south line y = l1 for S and the
// north line y = l2 for N. The B tile is recovered by measuring the B∪N slab
// against y = l1 and subtracting the N area:
//
//	area(B) = |area(B+N)| − |area(N)|.
//
// The running time is O(k_a + k_b) (Theorem 2 of the paper). The pass is
// the batch engine's kernel (relatePctFullInto) over a reused preparation
// of a — see ComputeCDR.
func ComputeCDRPct(a, b geom.Region) (PercentMatrix, TileAreas, error) {
	m, ta, _, err := computeCDRPct(a, b)
	return m, ta, err
}

func computeCDRPct(a, b geom.Region) (PercentMatrix, TileAreas, Stats, error) {
	var st Stats
	var areas TileAreas
	grid, err := oneShotGrid(a, b)
	if err != nil {
		return PercentMatrix{}, areas, st, err
	}
	sc := getScratch()
	defer putScratch(sc)
	total, err := sc.primary(a).relatePctFullInto(&areas, grid, &st)
	st.Passes = 1
	if err != nil { // the kernel's message names a region; this primary has no name
		return PercentMatrix{}, areas, st, fmt.Errorf("core: primary region has zero area: %w", ErrDegenerateRegion)
	}
	var m PercentMatrix
	percentInto(&m, &areas, total)
	return m, areas, st, nil
}

// RelatePct computes the cardinal direction relation with percentages of the
// primary a against the reference b — equivalent to
// ComputeCDRPct(a.Region, b.Region) but with all per-region work
// (normalisation, edge flattening, grid construction, polygon areas) already
// paid at Prepare time; it performs zero heap allocations. The Scratch is
// not used and may be nil.
func RelatePct(a, b *Prepared, _ *Scratch) (PercentMatrix, TileAreas, error) {
	if b.noGrid {
		return PercentMatrix{}, TileAreas{}, b.gridErr()
	}
	return a.relatePct(b.grid(), false, nil)
}

// relatePct dispatches between the cached-area fast path and the full
// edge-splitting quantitative algorithm.
func (p *Prepared) relatePct(g Grid, noPrune bool, st *Stats) (PercentMatrix, TileAreas, error) {
	var areas TileAreas
	total, err := p.relatePctAreasInto(&areas, g, noPrune, st)
	if err != nil {
		return PercentMatrix{}, areas, err
	}
	var m PercentMatrix
	percentInto(&m, &areas, total)
	return m, areas, nil
}

// relatePctAreasInto computes the per-tile areas into dst and returns their
// total — the batch engine's entry point, writing straight into the output
// slot instead of copying 72-byte values through three return frames. The
// O(1) single-tile case is checked here, one call deep, because it answers
// over 90% of scatter-batch pairs.
func (p *Prepared) relatePctAreasInto(dst *TileAreas, g Grid, noPrune bool, st *Stats) (float64, error) {
	if !noPrune && p.totalArea > 0 {
		if col, row := strictCol(p.Box, g), strictRow(p.Box, g); col >= 0 && row >= 0 {
			*dst = TileAreas{}
			dst[TileAt(col, row)] = p.totalArea
			if st != nil {
				st.PrunePctTile++
			}
			return p.totalArea, nil
		}
		if p.relatePctPolyInto(dst, g, st) {
			return p.totalArea, nil
		}
	}
	return p.relatePctFullInto(dst, g, st)
}

// pctIdx maps a tile to its (row, col) cell of the printed PercentMatrix.
var pctIdx = func() [NumTiles][2]uint8 {
	var idx [NumTiles][2]uint8
	for _, t := range Tiles() {
		idx[t] = [2]uint8{uint8(2 - t.Row()), uint8(t.Col())}
	}
	return idx
}()

// percentInto fills m with the percentage form of areas given their total.
func percentInto(m *PercentMatrix, areas *TileAreas, total float64) {
	inv := 100 / total
	for t, v := range areas {
		m[pctIdx[t][0]][pctIdx[t][1]] = v * inv
	}
}

// relatePctPolyInto is the per-polygon half of the fast path: each polygon
// box strictly inside a single tile contributes its whole cached area there.
// It reports false (dst half-written, caller must fall through to the full
// algorithm) when any polygon box touches or spans a grid line.
func (p *Prepared) relatePctPolyInto(dst *TileAreas, g Grid, st *Stats) bool {
	*dst = TileAreas{}
	for i := range p.polys {
		pp := &p.polys[i]
		col := strictCol(pp.box, g)
		if col < 0 {
			return false
		}
		row := strictRow(pp.box, g)
		if row < 0 {
			return false
		}
		dst[TileAt(col, row)] += pp.area
	}
	if st != nil {
		st.PrunePctPoly++
	}
	return true
}

// relatePctFullInto is the paper's Compute-CDR% over the struct-of-arrays
// edge layout: one pass over the flat coordinate slices, accumulating the
// trapezoid expressions into nine locals the compiler keeps in registers.
// An edge is split only when its coordinate span actually straddles a grid
// line (four compares, no divisions); the no-split majority accumulates
// straight from the raw coordinates with no Segment materialisation and no
// buffer traffic. Accumulation order per tile matches the paper
// transcription (transcription_test.go) exactly, so results are
// bit-identical (TestKernelsMatchPaperTranscription). It writes the
// per-tile areas into dst and returns their total.
func (p *Prepared) relatePctFullInto(dst *TileAreas, g Grid, st *Stats) (float64, error) {
	m1, m2, l1, l2 := g.M1, g.M2, g.L1, g.L2
	ax, ay, bx, by := p.streams()
	var accS, accSW, accW, accNW, accN, accNE, accE, accSE, accBN float64
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
		// Same no-crossing span test as relateFull: a grid line is crossed
		// iff it lies strictly between the endpoint coordinates. An edge
		// that crosses nothing accumulates straight from the raw
		// coordinates, never touching memory; one that does is split by
		// splitEdgeInto and its pieces fed through the same switch.
		if (hix <= m1 || lox >= m1) && (hix <= m2 || lox >= m2) &&
			(hiy <= l1 || loy >= l1) && (hiy <= l2 || loy >= l2) {
			outCount++
			switch tileGrid[classifyRow(l1, l2, loy, hiy, x1-x0)][classifyCol(m1, m2, lox, hix, y1-y0)] {
			case TileNW:
				accNW += (y1 - y0) * (x0 + x1 - 2*m1) / 2
			case TileW:
				accW += (y1 - y0) * (x0 + x1 - 2*m1) / 2
			case TileSW:
				accSW += (y1 - y0) * (x0 + x1 - 2*m1) / 2
			case TileNE:
				accNE += (y1 - y0) * (x0 + x1 - 2*m2) / 2
			case TileE:
				accE += (y1 - y0) * (x0 + x1 - 2*m2) / 2
			case TileSE:
				accSE += (y1 - y0) * (x0 + x1 - 2*m2) / 2
			case TileS:
				accS += (x1 - x0) * (y0 + y1 - 2*l1) / 2
			case TileN:
				accN += (x1 - x0) * (y0 + y1 - 2*l2) / 2
				accBN += (x1 - x0) * (y0 + y1 - 2*l1) / 2
			case TileB:
				accBN += (x1 - x0) * (y0 + y1 - 2*l1) / 2
			}
			continue
		}
		cnt := splitEdgeInto(m1, m2, l1, l2, x0, y0, x1, y1, &qx, &qy)
		outCount += cnt
		for k := 0; k < cnt; k++ {
			sx0, sy0, sx1, sy1 := qx[k], qy[k], qx[k+1], qy[k+1]
			switch tileGrid[classifyRow(l1, l2, min(sy0, sy1), max(sy0, sy1), sx1-sx0)][classifyCol(m1, m2, min(sx0, sx1), max(sx0, sx1), sy1-sy0)] {
			case TileNW:
				accNW += (sy1 - sy0) * (sx0 + sx1 - 2*m1) / 2
			case TileW:
				accW += (sy1 - sy0) * (sx0 + sx1 - 2*m1) / 2
			case TileSW:
				accSW += (sy1 - sy0) * (sx0 + sx1 - 2*m1) / 2
			case TileNE:
				accNE += (sy1 - sy0) * (sx0 + sx1 - 2*m2) / 2
			case TileE:
				accE += (sy1 - sy0) * (sx0 + sx1 - 2*m2) / 2
			case TileSE:
				accSE += (sy1 - sy0) * (sx0 + sx1 - 2*m2) / 2
			case TileS:
				accS += (sx1 - sx0) * (sy0 + sy1 - 2*l1) / 2
			case TileN:
				accN += (sx1 - sx0) * (sy0 + sy1 - 2*l2) / 2
				accBN += (sx1 - sx0) * (sy0 + sy1 - 2*l1) / 2
			case TileB:
				accBN += (sx1 - sx0) * (sy0 + sy1 - 2*l1) / 2
			}
		}
	}
	if st != nil {
		st.EdgesIn += len(ax)
		st.EdgeVisits += len(ax)
		st.EdgesOut += outCount
		st.Intersections += outCount - len(ax)
	}

	aS, aSW, aW, aNW := abs(accS), abs(accSW), abs(accW), abs(accNW)
	aN, aNE, aE, aSE := abs(accN), abs(accNE), abs(accE), abs(accSE)
	// area(B) = |area(B+N)| − |area(N)|; clamp tiny negative float residue.
	var aB float64
	if bArea := abs(accBN) - aN; bArea > 0 {
		aB = bArea
	}
	dst[TileB], dst[TileS], dst[TileSW] = aB, aS, aSW
	dst[TileW], dst[TileNW], dst[TileN] = aW, aNW, aN
	dst[TileNE], dst[TileE], dst[TileSE] = aNE, aE, aSE
	// Summed in tile index order, matching TileAreas.Total bit for bit.
	total := aB + aS + aSW + aW + aNW + aN + aNE + aE + aSE
	if total <= 0 {
		return 0, fmt.Errorf("core: region %q has zero area: %w", p.Name, ErrDegenerateRegion)
	}
	return total, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
