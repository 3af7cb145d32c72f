package reason

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// SolveParallel is SolveCtx with the top level of the backtracking search
// fanned across goroutines: every (relation, Allen-pair) choice for the
// first constrained edge becomes an independent branch seed, the surviving
// seeds are striped over opts.Workers goroutines sharing one scenario
// budget, and the first branch to realise a witness cancels the rest
// (first-witness-wins via context).
//
// The fan is a search-order diversification, not just a core-count
// multiplier: when the sequential edge order buries the satisfiable branch
// behind expensive barren ones, concurrent branches reach it after a few
// scheduler slices while the sequential walk is still exhausting the barren
// prefix — a super-linear speedup that holds even on one CPU. Unsatisfiable
// networks still need every branch refuted, so they parallelise only as
// well as the hardware. Workers ≤ 0 defaults to max(8, GOMAXPROCS);
// oversubscription is deliberate for the reason above.
func (n *Network) SolveParallel(ctx context.Context, opts SolveOptions) (*Witness, error) {
	w, _, _, err := n.solveParallel(ctx, opts)
	return w, err
}

// solveParallel is SolveParallel also reporting, for Check's stats, the
// number of top-level branch seeds explored and of goroutines the search
// ran on: 1 and 1 when it ran sequentially — Workers 1, no edge to fan, or
// a single viable seed — and the seed count and min(Workers, seeds) when it
// fanned.
func (n *Network) solveParallel(ctx context.Context, opts SolveOptions) (w *Witness, branches, workers int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MaxScenarios <= 0 {
		opts.MaxScenarios = 100000
	}
	workers = opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 8 {
			workers = 8
		}
	}
	edges, w, done := n.prepare()
	if done {
		return w, 0, 0, nil
	}
	nv := len(n.names)
	budget := newScenarioBudget(opts.MaxScenarios)
	runSeq := func() (*Witness, int, int, error) {
		s := &solver{n: n, ctx: ctx, edges: edges,
			chosen: make(map[[2]int]edgeChoice, len(edges)), budget: budget}
		w, err := s.assignEdges(0, newAxisNet(nv), newAxisNet(nv))
		return w, 1, 1, err
	}
	if len(edges) == 0 || workers == 1 {
		return runSeq()
	}

	// Expand the first edge's branch choices into seeds, each with its own
	// propagated pair of axis networks; choices the axis networks already
	// refute are dropped here, exactly as assignEdges would drop them.
	key := edges[0]
	a, b := key[0], key[1]
	type seed struct {
		choice edgeChoice
		mx, my *axisNet
	}
	base := newAxisNet(nv)
	var seeds []seed
	for _, r := range n.cons[key].Relations() {
		for _, pair := range PairsOf(r) {
			ax, ay := pair[0], pair[1]
			mx := base.Clone()
			my := base.Clone()
			mx.Set(a, b, AllenOf(ax))
			my.Set(a, b, AllenOf(ay))
			if !mx.Propagate() || !my.Propagate() {
				continue
			}
			seeds = append(seeds, seed{choice: edgeChoice{rel: r, ax: ax, ay: ay}, mx: mx, my: my})
		}
	}
	if len(seeds) == 0 {
		return nil, 0, 0, nil // no viable top-level choice: unsatisfiable
	}
	if len(seeds) == 1 {
		return runSeq()
	}

	branchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		witness *Witness
		werr    error
	)
	stripes := min(workers, len(seeds))
	var wg sync.WaitGroup
	for g := 0; g < stripes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Round-robin striping keeps late seeds on their own goroutine
			// when workers ≥ seeds, so a cheap satisfiable branch is never
			// queued behind a stripe-mate's barren search.
			for i := g; i < len(seeds); i += stripes {
				if branchCtx.Err() != nil {
					return
				}
				sd := seeds[i]
				s := &solver{n: n, ctx: branchCtx, edges: edges,
					chosen: map[[2]int]edgeChoice{key: sd.choice}, budget: budget}
				w, err := s.assignEdges(1, sd.mx, sd.my)
				if w != nil {
					mu.Lock()
					if witness == nil {
						witness = w
					}
					mu.Unlock()
					cancel() // first witness wins
					return
				}
				if err != nil {
					mu.Lock()
					if werr == nil {
						werr = err
					}
					mu.Unlock()
					// The shared budget is global: once one branch hits the
					// limit every branch will; context errors likewise end
					// the whole fan. Either way this stripe is done.
					return
				}
			}
		}(g)
	}
	wg.Wait()

	switch {
	case witness != nil:
		return witness, len(seeds), stripes, nil
	case ctx.Err() != nil:
		// The caller's context expired (parallel-internal cancellation only
		// happens after a witness, handled above).
		return nil, len(seeds), stripes, ctx.Err()
	case werr != nil && errors.Is(werr, ErrSearchLimit):
		return nil, len(seeds), stripes, ErrSearchLimit
	case werr != nil && !errors.Is(werr, context.Canceled):
		return nil, len(seeds), stripes, werr
	default:
		return nil, len(seeds), stripes, nil // every branch refuted: unsatisfiable
	}
}
