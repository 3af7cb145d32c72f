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
// ComputeCDRPct) and the LoD tier's strip stage, so callers stop paying for
// a primary's preparation storage on every call. A LoD batch worker still
// owns a private Scratch for its whole run — a pool get/put per pair would
// be pure overhead there.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxPooledEdges caps what the pool keeps of a one-shot primary: storage
// grown past 2^14 edges (512 KiB of coordinates) or 2^14 polygons is
// dropped on the way back, so a rare huge primary is reclaimed with its
// call instead of pinned by the pool. The Theorems 1–2 sweeps (10^4 edges
// in the benchmark, 16 384 in E4/E5) stay pooled and allocation-free.
const maxPooledEdges = 1 << 14

// getScratch takes a warmed Scratch from the pool.
func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch returns a Scratch to the pool. Storage within maxPooledEdges
// keeps its grown capacity, so steady-state callers converge on zero
// allocations.
func putScratch(sc *Scratch) {
	if cap(sc.coords) > 4*maxPooledEdges || cap(sc.prim.polys) > maxPooledEdges {
		sc.prim, sc.coords = Prepared{}, nil
	}
	scratchPool.Put(sc)
}

// primary prepares r into sc's one-shot storage and returns it: Prepare's
// fill over buffers reused across calls, so a counter-clockwise ring is
// reversed straight into the block, never copied. The result is valid until
// the next call on sc.
func (sc *Scratch) primary(r geom.Region) *Prepared {
	nc, np := 4*r.NumEdges(), len(r)
	if cap(sc.coords) < nc {
		sc.coords = make([]float64, nc)
	}
	offs, polys := sc.prim.polyOff, sc.prim.polys
	if cap(offs) < np+1 {
		offs = make([]int32, np+1)
	}
	if cap(polys) < np {
		polys = make([]preparedPoly, np)
	}
	sc.prim = Prepared{}
	sc.prim.fill("", r, sc.coords[:nc], offs[:np+1], polys[:np])
	return &sc.prim
}
