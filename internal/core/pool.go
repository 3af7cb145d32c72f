package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"cardirect/internal/geom"
)

// sweep is the package's one worker loop: every multi-pair read (BatchCDR,
// BatchPct, LoDWorld.BatchRows) hands it the number of rows and a function
// computing one row. workers ≤ 0 means GOMAXPROCS, never more than rows; one
// worker runs on the calling goroutine (no spawn, deterministic profiling),
// more fan out and join. Workers claim rows through one atomic counter and
// poll ctx once per claimed row, which bounds cancellation latency to one
// row without taxing the per-pair loop inside it. Each worker owns a pooled
// Scratch and a Stats for its whole run; the Stats are merged into the
// returned total. A row error does not stop the sweep: the error of the
// lowest failing row is returned, so the result does not depend on the
// worker count, and a done ctx wins over any row error.
func sweep(ctx context.Context, rows, workers int, row func(r int, sc *Scratch, st *Stats) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		total  Stats
		errRow = rows
		rowErr error
	)
	work := func() {
		sc := getScratch()
		defer putScratch(sc)
		var st Stats
		firstRow, firstErr := rows, error(nil)
		for {
			r := int(next.Add(1) - 1)
			if r >= rows || ctx.Err() != nil {
				break
			}
			// Rows are claimed in increasing order, so a worker's first
			// error is its lowest.
			if err := row(r, sc, &st); err != nil && firstErr == nil {
				firstRow, firstErr = r, err
			}
		}
		mu.Lock()
		total.Merge(st)
		if firstRow < errRow {
			errRow, rowErr = firstRow, firstErr
		}
		mu.Unlock()
	}
	if workers = min(workers, rows); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	return total, rowErr
}

// scratchPool recycles Scratch values for the one-shot paths (ComputeCDR,
// ComputeCDRPct), the LoD tier's strip stage and the sweep workers, so
// callers stop paying for a primary's preparation storage on every call. A
// sweep worker holds its Scratch for its whole run — a pool get/put per pair
// would be pure overhead there.
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
// allocations. The cap holds for the strip stage's buffers too: they grow
// with the largest strip-indexed primary a sweep worker met (4 B per edge
// for the de-duplication stamps alone).
func putScratch(sc *Scratch) {
	if cap(sc.prim.c) > 4*maxPooledEdges || cap(sc.prim.polys) > maxPooledEdges {
		sc.prim = Prepared{}
	}
	if max(cap(sc.stripSeen), cap(sc.stripIDs), cap(sc.polyMark), cap(sc.polyTouched)) > maxPooledEdges {
		sc.stripSeen, sc.stripEpoch, sc.stripIDs, sc.polyMark, sc.polyTouched = nil, 0, nil, nil, nil
	}
	scratchPool.Put(sc)
}

// primary prepares r into sc's one-shot storage and returns it: Prepare's
// fill over buffers reused across calls, so a counter-clockwise ring is
// reversed straight into the block, never copied. The result is valid until
// the next call on sc.
func (sc *Scratch) primary(r geom.Region) *Prepared {
	nc, np := 4*r.NumEdges(), len(r)
	coords, polys := sc.prim.c, sc.prim.polys
	if cap(coords) < nc {
		coords = make([]float64, nc)
	}
	if cap(polys) < np {
		polys = make([]preparedPoly, np)
	}
	sc.prim = Prepared{}
	sc.prim.fill("", r, coords[:nc], polys[:np])
	return &sc.prim
}
