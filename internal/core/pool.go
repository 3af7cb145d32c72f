package core

import (
	"runtime"
	"sync"

	"cardirect/internal/geom"
)

// runPool runs work on a pool of the given size. One worker executes on the
// calling goroutine (no spawn, deterministic profiling); more fan out and
// join. Every worker runs the same closure — work distribution happens inside
// work via an atomic claim counter, the scheme shared by the batch engines
// and the relation store's delta recomputation.
func runPool(workers int, work func()) {
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// poolSize resolves a Workers option against the number of work items:
// ≤0 means GOMAXPROCS, and never more workers than items.
func poolSize(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, items)
}

// scratchPool recycles Scratch values for the one-shot paths (ComputeCDR,
// ComputeCDRPct) and the LoD tier's strip stage, so callers stop paying one
// split-buffer allocation per call. A LoD batch worker still owns a private
// Scratch for its whole run — a pool get/put per pair would be pure
// overhead there.
var scratchPool = sync.Pool{
	New: func() any {
		return &Scratch{buf: make([]geom.Segment, 0, 8)}
	},
}

// getScratch takes a warmed Scratch from the pool.
func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch returns a Scratch to the pool. The split buffer keeps its grown
// capacity, so steady-state callers converge on zero allocations.
func putScratch(sc *Scratch) { scratchPool.Put(sc) }
