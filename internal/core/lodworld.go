package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cardirect/internal/geom"
)

// LoDWorld is a world prepared for huge-scale relation computation: one
// Prepared per region, all but a few of them carved from one exact-size
// slab (see prepareSlab); a sparse level-of-detail side (simplified edges,
// error band, lazy exact and strip caches) for just the regions that have
// one; and the coarse cell-span summary answering clearly single-tile pairs
// in O(1). At 10^5 regions an eagerly materialised relation matrix is off
// the table (10^10 cells), so the world answers pairs and row sweeps on
// demand instead; every answer is bit-identical to the exact kernel's
// (differential-tested, fuzzed).
//
// Immutable after construction except for the lazy caches; safe for
// concurrent use.
type LoDWorld struct {
	preps   []*Prepared    // per region; lods[i].simp where region i has a LoD side
	lods    map[int32]*LoD // only the regions planLoD kept
	coarse  *CoarseIndex
	workers int
	// boxes[i] is preps[i].Box, packed: a row sweep reads every region as a
	// reference, and one sequential 32-byte stream is half the cache lines
	// of chasing preps[j] into the slab (sweeps of giant rows, where a
	// quarter of the pairs get past the coarse tier, ran 35% slower
	// without it).
	boxes []geom.Rect

	namesOnce sync.Once
	names     nameIndex // built by the first Index call
}

// PrepareLoDWorld builds the level-of-detail world: names must be
// non-empty and unique (the batch naming contract). Regions are planned
// (and the few big ones simplified) on the worker pool; everything else is
// counted and built from one slab. Exact geometry of a simplified region is
// prepared lazily, only when a pair needs it, from the caller's rings —
// which the world therefore references and the caller must not mutate.
func PrepareLoDWorld(regions []NamedRegion, opt LoDOptions) (*LoDWorld, error) {
	if _, err := indexNames(len(regions), func(i int) string { return regions[i].Name }); err != nil {
		return nil, err
	}
	w := &LoDWorld{
		preps:   make([]*Prepared, len(regions)),
		lods:    map[int32]*LoD{},
		workers: opt.Workers,
	}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	runPool(poolSize(opt.Workers, len(regions)), func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(regions) {
				return
			}
			l, err := planLoD(regions[i].Name, regions[i].Region, opt)
			if l == nil && err == nil {
				continue
			}
			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				w.preps[i], w.lods[int32(i)] = l.simp, l
			}
			mu.Unlock()
			if err != nil {
				return
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := prepareSlab(regions, w.preps); err != nil {
		return nil, err
	}
	w.boxes = make([]geom.Rect, len(w.preps))
	for i, p := range w.preps {
		w.boxes[i] = p.Box
	}
	w.coarse = NewCoarseIndex(w.boxes, opt.Grid)
	return w, nil
}

// Len returns the number of regions.
func (w *LoDWorld) Len() int { return len(w.preps) }

// Index returns the index of the named region, or -1. The name index is
// built by the first call.
func (w *LoDWorld) Index(name string) int {
	nameAt := func(i int) string { return w.preps[i].Name }
	w.namesOnce.Do(func() {
		// Cannot fail: PrepareLoDWorld checked these names.
		w.names, _ = indexNames(len(w.preps), nameAt)
	})
	return w.names.lookup(name, nameAt)
}

// LoD returns region i's level-of-detail side, or nil when it has none:
// the region was neither simplified nor is it big enough for the strip
// stage, and its Prepared is plainly exact.
func (w *LoDWorld) LoD(i int) *LoD { return w.lods[int32(i)] }

// Coarse returns the world's coarse cell-span summary.
func (w *LoDWorld) Coarse() *CoarseIndex { return w.coarse }

// Relation answers the relation of primary i against reference j through
// the tier stack: coarse cell spans in O(1), then the stages of relate.
// Bit-identical to Relate(exact_i, exact_j, sc) including the
// degenerate-reference error. sc may be nil.
func (w *LoDWorld) Relation(i, j int, sc *Scratch, st *Stats) (Relation, error) {
	b := w.preps[j]
	if b.noGrid {
		return 0, b.gridErr()
	}
	if rel, ok := w.coarse.PairSingleTile(i, j); ok {
		if st != nil {
			st.CoarseSingleTile++
		}
		return rel, nil
	}
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	var discard Stats
	if st == nil {
		st = &discard
	}
	return relateLoD(w.preps[i], w.lods[int32(i)], b.grid(), sc, st), nil
}

// relateLoD computes the relation of a primary — its world Prepared a and
// its level-of-detail side l, nil when it has none — against a reference
// grid. The result is bit-identical to the exact kernel's for every pair;
// the stages only change which geometry pays for it:
//
//   - the MBB fast path answers from boxes shared exactly with the
//     original (gated on the original's band soundness);
//   - the strip stage classifies just the exact edges near the grid lines
//     (Stats.LoDStrip);
//   - when the certain/possible bracket pins the answer, the simplified
//     edges decide the pair (Stats.LoDSimplified);
//   - otherwise the full exact kernel runs (Stats.LoDExact), over the
//     exact geometry prepared once and cached.
func relateLoD(a *Prepared, l *LoD, g Grid, sc *Scratch, st *Stats) Relation {
	if rel, ok := a.relateFast(g, st); ok {
		return rel
	}
	if l != nil {
		center := g.Box().Center()
		// Strip first: for the dominant ambiguous pair — a huge primary
		// over a small reference — it classifies a handful of edges and is
		// exact, so trying the bracket first would cost a simplified-kernel
		// pass that rarely concludes there. The bracket earns its keep on
		// the pairs the strip declines: comparable-size references whose
		// band meets most of the primary's edges.
		if l.origEdges >= stripMinEdges {
			if rel, ok := l.relateStrip(g, center, sc); ok {
				st.LoDStrip++
				return rel
			}
		}
		if l.Eps > 0 {
			if rel, ok := l.relateSimplified(g, center); ok {
				st.LoDSimplified++
				return rel
			}
		}
		a = l.Exact()
	}
	st.LoDExact++
	return a.relateFull(g, st)
}

// RelationPct answers the percent matrix of primary i against reference j,
// bit-identical to RelatePct(exact_i, exact_j, sc). Simplified geometry
// cannot answer a quantitative query (its areas differ), so the tier is the
// box/area fast path — over the shared-exact boxes and the ORIGINAL areas
// the world's Prepared carries — or the exact kernel; the win is skipping
// the exact preparation for the overwhelming fast-path majority. The
// Scratch is not used and may be nil.
func (w *LoDWorld) RelationPct(i, j int, _ *Scratch, st *Stats) (PercentMatrix, TileAreas, error) {
	b := w.preps[j]
	if b.noGrid {
		return PercentMatrix{}, TileAreas{}, b.gridErr()
	}
	a := w.preps[i]
	areas, ok := a.relatePctFast(b.grid(), st)
	total := a.totalArea
	if !ok {
		if st != nil {
			st.LoDExact++
		}
		if l := w.lods[int32(i)]; l != nil {
			a = l.Exact()
		}
		var err error
		if total, err = a.relatePctFullInto(&areas, b.grid(), st); err != nil {
			return PercentMatrix{}, areas, err
		}
	}
	var m PercentMatrix
	percentInto(&m, &areas, total)
	return m, areas, nil
}

// BatchRows computes, for each requested primary row, its relation to
// every other region of the world — the sampled-row flavour of all-pairs
// that huge worlds use in place of the infeasible full matrix. exact
// routes every pair through the exact-geometry engine instead of the LoD
// tiers (the E23 comparison baseline; results are identical either way).
// out[r][j] is rows[r]'s relation to region j, with out[r][rows[r]] left
// zero. The context is checked once per claimed row.
func (w *LoDWorld) BatchRows(ctx context.Context, rows []int, exact bool) ([][]Relation, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(w.preps)
	for _, p := range w.preps {
		if p.noGrid {
			return nil, Stats{}, fmt.Errorf("core: region %q: %w", p.Name, p.gridErr())
		}
	}
	out := make([][]Relation, len(rows))
	for r := range out {
		if rows[r] < 0 || rows[r] >= n {
			return nil, Stats{}, fmt.Errorf("core: row index %d out of range [0,%d)", rows[r], n)
		}
		out[r] = make([]Relation, n)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var total Stats
	runPool(poolSize(w.workers, len(rows)), func() {
		sc := getScratch()
		defer putScratch(sc)
		var st Stats
		for {
			r := int(next.Add(1) - 1)
			if r >= len(rows) {
				break
			}
			if ctx.Err() != nil {
				break
			}
			pi := rows[r]
			row := out[r]
			a, l := w.preps[pi], w.lods[int32(pi)]
			if exact {
				if l != nil {
					a = l.Exact()
				}
				for j, b := range w.boxes {
					if j == pi {
						continue
					}
					// the boxes are exact (anchored), so the grids are
					row[j] = a.relate(boxGrid(b), false, &st)
					st.Passes++
				}
				continue
			}
			// PairSingleTile with the primary's span hoisted out of the
			// inner loop and the per-axis switches folded into the
			// coarsePairLut nibble lookup: the sweep streams the 8-byte
			// spans sequentially, the comparisons materialise as flags, and
			// the only data-dependent branch left is the lookup hit, which
			// the predictor learns (>99% of pairs decide here).
			spans := w.coarse.spans
			as := spans[pi]
			for j := 0; j < n; j++ {
				if j == pi {
					continue
				}
				bs := spans[j]
				xb := b2i(as.x1 < bs.x0) | b2i(as.x0 > bs.x1)<<1 |
					b2i(as.x0 > bs.x0)<<2 | b2i(as.x1 < bs.x1)<<3
				yb := b2i(as.y1 < bs.y0) | b2i(as.y0 > bs.y1)<<1 |
					b2i(as.y0 > bs.y0)<<2 | b2i(as.y1 < bs.y1)<<3
				if rel := coarsePairLut[xb|yb<<4]; rel != 0 {
					st.CoarseSingleTile++
					row[j] = rel
					continue
				}
				row[j] = relateLoD(a, l, boxGrid(w.boxes[j]), sc, &st)
				st.Passes++
			}
		}
		mu.Lock()
		total.Merge(st)
		mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return nil, total, err
	}
	return out, total, nil
}
