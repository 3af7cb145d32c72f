package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cardirect/internal/geom"
)

// LoDOptions configures PrepareLoDWorld.
type LoDOptions struct {
	// Grid is the coarse-index resolution per axis; 0 means
	// DefaultCoarseGrid.
	Grid int
	// Workers sizes the worker pool of LoDWorld batch sweeps; ≤0 means
	// GOMAXPROCS.
	Workers int
}

// LoDWorld is a world prepared for huge-scale relation computation (10^5+
// regions with zipfian edge counts): one exact Prepared per region, all
// carved from one exact-size slab (see PrepareAll); the coarse cell-span
// summary answering clearly single-tile pairs in O(1); and, for the few
// regions of at least stripMinEdges edges, a strip index that classifies
// only the edges near the reference's four lines. At 10^5 regions an eagerly
// materialised relation matrix is off the table (10^10 cells), so the world
// answers pairs and row sweeps on demand instead; every answer is
// bit-identical to the exact kernel's (differential-tested, fuzzed).
//
// The world copies what it needs out of the caller's regions and keeps no
// reference to them. Immutable after construction except for the lazily
// built strip indexes; safe for concurrent use.
type LoDWorld struct {
	preps   []*Prepared
	strips  map[int32]*stripIndex // only the regions of ≥ stripMinEdges edges
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

// PrepareLoDWorld builds the huge-world tier: names must be non-empty and
// unique (the batch naming contract).
func PrepareLoDWorld(regions []NamedRegion, opt LoDOptions) (*LoDWorld, error) {
	preps, err := PrepareAll(regions)
	if err != nil {
		return nil, err
	}
	w := &LoDWorld{
		preps:   preps,
		strips:  map[int32]*stripIndex{},
		workers: opt.Workers,
		boxes:   make([]geom.Rect, len(preps)),
	}
	for i, p := range preps {
		w.boxes[i] = p.Box
		if len(p.ax) >= stripMinEdges {
			w.strips[int32(i)] = &stripIndex{p: p}
		}
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

// checkIndex rejects a region index outside the world.
func (w *LoDWorld) checkIndex(i int) error {
	if i < 0 || i >= len(w.preps) {
		return fmt.Errorf("core: row index %d out of range [0,%d)", i, len(w.preps))
	}
	return nil
}

// Coarse returns the world's coarse cell-span summary.
func (w *LoDWorld) Coarse() *CoarseIndex { return w.coarse }

// Relation answers the relation of primary i against reference j through
// the tier stack: coarse cell spans in O(1), then the stages of relateLoD.
// Bit-identical to Relate(exact_i, exact_j, sc) including the
// degenerate-reference error. sc may be nil.
func (w *LoDWorld) Relation(i, j int, sc *Scratch, st *Stats) (Relation, error) {
	if err := w.checkIndex(i); err != nil {
		return 0, err
	}
	if err := w.checkIndex(j); err != nil {
		return 0, err
	}
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
	return relateLoD(w.preps[i], w.strips[int32(i)], b.grid(), sc, st), nil
}

// relateLoD computes the relation of a primary — its Prepared a and its
// strip index ix, nil when it is too small to have one — against a
// reference grid. The result is bit-identical to a.relate's for every pair;
// the stages only change how many edges pay for it:
//
//   - the MBB fast path answers from boxes alone;
//   - the strip stage classifies just the edges near the grid lines
//     (Stats.LoDStrip), declining when that is more than half of them;
//   - otherwise the full kernel runs (Stats.LoDExact).
func relateLoD(a *Prepared, ix *stripIndex, g Grid, sc *Scratch, st *Stats) Relation {
	if rel, ok := a.relateFast(g, st); ok {
		return rel
	}
	if ix != nil {
		if rel, ok := ix.relateStrip(g, sc); ok {
			st.LoDStrip++
			return rel
		}
	}
	st.LoDExact++
	return a.relateFull(g, st)
}

// BatchRows computes, for each requested primary row, its relation to
// every other region of the world — the sampled-row flavour of all-pairs
// that huge worlds use in place of the infeasible full matrix. exact
// routes every pair through the plain engine (MBB fast path, then the full
// kernel) instead of the tier stack — the E23 comparison baseline; results
// are identical either way.
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
		if err := w.checkIndex(rows[r]); err != nil {
			return nil, Stats{}, err
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
			a, ix := w.preps[pi], w.strips[int32(pi)]
			if exact {
				for j, b := range w.boxes {
					if j == pi {
						continue
					}
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
				row[j] = relateLoD(a, ix, boxGrid(w.boxes[j]), sc, &st)
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
