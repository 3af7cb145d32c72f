package core

import "context"

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
	ps, o, err := batchInput(regions, opt)
	if err != nil {
		return nil, err
	}
	pairs, st, err := batchPctPrepared(ctx, ps, o)
	if err != nil {
		return nil, err
	}
	return &BatchPctResult{Pairs: pairs, Stats: st}, nil
}

// batchPctPrepared is the quantitative batch engine proper, over prepared
// regions: one sweep whose row pi fills order[pi]'s matrices against every
// other region. Every region must be usable as a reference and as a
// quantitative primary (byName).
func batchPctPrepared(ctx context.Context, ps []*Prepared, opt BatchOptions) ([]PairPercent, Stats, error) {
	order, err := byName(ps, true)
	if order == nil {
		return nil, Stats{}, err
	}
	n := len(order)
	out := make([]PairPercent, n*(n-1))
	st, err := sweep(ctx, n, opt.Workers, func(pi int, _ *Scratch, st *Stats) error {
		a := order[pi]
		row := out[pi*(n-1) : (pi+1)*(n-1)]
		k := 0
		for ri, b := range order {
			if ri == pi {
				continue
			}
			// Fill the slot in place — areas and matrix are written
			// straight into the output slice instead of copying 72-byte
			// values through return paths.
			slot := &row[k]
			total, err := a.relatePctAreasInto(&slot.Areas, b.grid(), opt.NoPrune, st)
			if err != nil {
				return err
			}
			st.Passes++
			slot.Primary = a.Name
			slot.Reference = b.Name
			percentInto(&slot.Matrix, &slot.Areas, total)
			k++
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
