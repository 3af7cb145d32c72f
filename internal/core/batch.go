package core

import (
	"context"
	"fmt"
	"sort"

	"cardirect/internal/geom"
)

// NamedRegion pairs a region with an identifier for batch computation.
type NamedRegion struct {
	Name   string
	Region geom.Region
}

// PairRelation is one entry of a batch result: primary Name1 related to
// reference Name2.
type PairRelation struct {
	Primary   string
	Reference string
	Relation  Relation
}

// BatchOptions configures the all-pairs batch engines (BatchCDR, BatchPct).
type BatchOptions struct {
	// Workers is the worker-pool size; values ≤ 0 mean GOMAXPROCS. One
	// worker runs the whole batch on the calling goroutine.
	Workers int
	// NoPrune disables the MBB tile-pruning fast path, forcing full
	// edge-splitting for every pair. Used by benchmarks and ablations.
	NoPrune bool
	// Prepared, when non-nil, supplies already-prepared regions: the engine
	// skips preparation and ignores the regions argument, letting callers
	// that hold Prepared values (indexes, configuration stores) pay the
	// normalise/flatten/bbox cost once.
	Prepared []*Prepared
}

// BatchResult is the output of one qualitative all-pairs batch: the sorted
// (primary, reference) pair relations plus the aggregated instrumentation
// (edge counts, MBB prune hits) of the run.
type BatchResult struct {
	Pairs []PairRelation
	Stats Stats
}

// BatchCDR computes the cardinal direction relation for every ordered pair
// of distinct regions — the bulk operation CARDIRECT performs when a
// configuration is (re)annotated. It is the single qualitative batch entry
// point: regions are prepared (normalised, flattened, bounding-boxed) once
// each unless opt.Prepared supplies them, the MBB fast path answers
// box-separable pairs without splitting a single edge, and the work fans
// out over opt.Workers goroutines. The context is checked once per claimed
// primary row, so a server timeout or cancellation aborts the batch within
// one row's worth of work; the context's error is returned verbatim for
// errors.Is. Results come back sorted by (primary, reference). A nil opt
// means defaults (GOMAXPROCS workers, pruning on).
func BatchCDR(ctx context.Context, regions []NamedRegion, opt *BatchOptions) (*BatchResult, error) {
	ps, o, err := batchInput(regions, opt)
	if err != nil {
		return nil, err
	}
	pairs, st, err := batchPrepared(ctx, ps, o)
	if err != nil {
		return nil, err
	}
	return &BatchResult{Pairs: pairs, Stats: st}, nil
}

// batchInput resolves what both batch entry points take: a nil opt means
// the defaults, and the regions are opt.Prepared or else one PrepareAll
// over regions (skipped below two regions, which have no pairs).
func batchInput(regions []NamedRegion, opt *BatchOptions) ([]*Prepared, BatchOptions, error) {
	var o BatchOptions
	if opt != nil {
		o = *opt
	}
	if o.Prepared != nil || len(regions) < 2 {
		return o.Prepared, o, nil
	}
	ps, err := PrepareAll(regions)
	return ps, o, err
}

// byName checks that every region is usable by a batch engine — as a
// reference (non-degenerate bounding box) always, as a quantitative primary
// (positive area) when pct — and returns them sorted by name. Name-sorted
// rows make the output land directly in the canonical (primary, reference)
// order with no final sort, and make each row's write range a function of
// the row alone. Fewer than two regions have no pairs and give nil.
func byName(ps []*Prepared, pct bool) ([]*Prepared, error) {
	if len(ps) < 2 {
		return nil, nil
	}
	for _, p := range ps {
		if p.noGrid {
			return nil, fmt.Errorf("core: region %q: %w", p.Name, p.gridErr())
		}
		if pct && p.totalArea <= 0 {
			return nil, fmt.Errorf("core: region %q has zero area: %w", p.Name, ErrDegenerateRegion)
		}
	}
	order := append([]*Prepared(nil), ps...)
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })
	return order, nil
}

// batchPrepared is the qualitative batch engine proper, over prepared
// regions: one sweep whose row pi relates order[pi] to every other region.
func batchPrepared(ctx context.Context, ps []*Prepared, opt BatchOptions) ([]PairRelation, Stats, error) {
	order, err := byName(ps, false)
	if order == nil {
		return nil, Stats{}, err
	}
	n := len(order)
	out := make([]PairRelation, n*(n-1))
	st, err := sweep(ctx, n, opt.Workers, func(pi int, _ *Scratch, st *Stats) error {
		a := order[pi]
		row := out[pi*(n-1) : (pi+1)*(n-1)]
		k := 0
		for ri, b := range order {
			if ri == pi {
				continue
			}
			rel := a.relate(b.grid(), opt.NoPrune, st)
			st.Passes++
			row[k] = PairRelation{Primary: a.Name, Reference: b.Name, Relation: rel}
			k++
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
