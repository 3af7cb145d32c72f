package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PairPercent is one entry of a quantitative batch result: the percent
// matrix (and the per-tile absolute areas behind it) of primary Primary
// against reference Reference.
type PairPercent struct {
	Primary   string
	Reference string
	Matrix    PercentMatrix
	Areas     TileAreas
}

// BatchPctResult is the output of one quantitative all-pairs batch: the
// sorted (primary, reference) percent matrices plus the aggregated
// instrumentation (fast-path hits, edge counts) of the run.
type BatchPctResult struct {
	Pairs []PairPercent
	Stats Stats
}

// BatchPct computes the cardinal direction relation with percentages for
// every ordered pair of distinct regions — the quantitative counterpart of
// BatchCDR and the single quantitative batch entry point. Regions are
// prepared once each unless opt.Prepared supplies them; pairs whose
// polygons all land strictly inside single tiles are answered from areas
// cached at Prepare time without splitting an edge. The context is checked
// once per claimed primary row and its error returned verbatim. Results
// come back sorted by (primary, reference). A nil opt means defaults.
func BatchPct(ctx context.Context, regions []NamedRegion, opt *BatchOptions) (*BatchPctResult, error) {
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
			return &BatchPctResult{}, nil
		}
		var err error
		ps, err = PrepareAll(regions)
		if err != nil {
			return nil, err
		}
	}
	pairs, st, err := batchPctPrepared(ctx, ps, o)
	if err != nil {
		return nil, err
	}
	return &BatchPctResult{Pairs: pairs, Stats: st}, nil
}

// batchPctPrepared is the quantitative batch engine proper, over prepared
// regions. Every region must be usable as a reference (non-degenerate
// bounding box) and as a quantitative primary (positive area); a region
// failing either yields a wrapped error up front.
func batchPctPrepared(ctx context.Context, ps []*Prepared, opt BatchOptions) ([]PairPercent, Stats, error) {
	n := len(ps)
	if n < 2 {
		return nil, Stats{}, nil
	}
	for _, p := range ps {
		if p.noGrid {
			return nil, Stats{}, fmt.Errorf("core: region %q: %w", p.Name, p.gridErr())
		}
		if p.totalArea <= 0 {
			return nil, Stats{}, fmt.Errorf("core: region %q has zero area: %w", p.Name, ErrDegenerateRegion)
		}
	}
	// Name-sorted iteration: out[] lands directly in canonical (primary,
	// reference) order, and each worker's write range is a function of the
	// claimed row alone (same scheme as the qualitative engine).
	order := make([]*Prepared, n)
	copy(order, ps)
	sort.Slice(order, func(i, j int) bool { return order[i].Name < order[j].Name })

	out := make([]PairPercent, n*(n-1))
	workers := poolSize(opt.Workers, n)

	var next atomic.Int64
	var mu sync.Mutex
	var total Stats
	errs := make([]error, n)
	runPool(workers, func() {
		var st Stats
		for {
			pi := int(next.Add(1) - 1)
			if pi >= n {
				break
			}
			// Per-row context check, matching the qualitative engine's
			// cancellation granularity.
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
				// Fill the slot in place — areas and matrix are written
				// straight into the output slice instead of copying 72-byte
				// values through return paths.
				slot := &row[k]
				total, err := a.relatePctAreasInto(&slot.Areas, b.grid(), opt.NoPrune, &st)
				if err != nil {
					errs[pi] = err
					break
				}
				st.Passes++
				slot.Primary = a.Name
				slot.Reference = b.Name
				percentInto(&slot.Matrix, &slot.Areas, total)
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
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	return out, total, nil
}
