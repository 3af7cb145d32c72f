package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	var o BatchOptions
	if opt != nil {
		o = *opt
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ps := o.Prepared
	if ps == nil {
		if len(regions) < 2 {
			return &BatchResult{}, nil
		}
		var err error
		ps, err = PrepareAll(regions)
		if err != nil {
			return nil, err
		}
	}
	pairs, st, err := batchPrepared(ctx, ps, o)
	if err != nil {
		return nil, err
	}
	return &BatchResult{Pairs: pairs, Stats: st}, nil
}

// batchPrepared is the qualitative batch engine proper, over prepared
// regions: name-sorted iteration makes out[] land directly in the canonical
// (primary, reference) order with no final sort, and makes each worker's
// write range a function of the claimed row alone.
func batchPrepared(ctx context.Context, ps []*Prepared, opt BatchOptions) ([]PairRelation, Stats, error) {
	n := len(ps)
	if n < 2 {
		return nil, Stats{}, nil
	}
	for _, p := range ps {
		if p.noGrid {
			return nil, Stats{}, fmt.Errorf("core: region %q: %w", p.Name, p.gridErr())
		}
	}
	order := make([]*Prepared, n)
	copy(order, ps)
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })

	out := make([]PairRelation, n*(n-1))
	workers := poolSize(opt.Workers, n)

	var next atomic.Int64
	var mu sync.Mutex
	var total Stats
	runPool(workers, func() {
		var st Stats
		for {
			pi := int(next.Add(1) - 1)
			if pi >= n {
				break
			}
			// One context check per claimed row bounds the cancellation
			// latency to a single primary's sweep without taxing the
			// per-pair hot loop.
			if ctx.Err() != nil {
				break
			}
			a := order[pi]
			row := out[pi*(n-1) : (pi+1)*(n-1)]
			k := 0
			for ri := 0; ri < n; ri++ {
				if ri == pi {
					continue
				}
				b := order[ri]
				rel := a.relate(b.grid(), opt.NoPrune, &st)
				st.Passes++
				row[k] = PairRelation{Primary: a.Name, Reference: b.Name, Relation: rel}
				k++
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
