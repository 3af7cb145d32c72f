package query

import (
	"context"
	"sync"
	"time"

	"cardirect/internal/config"
)

// Engine is the long-lived, goroutine-safe query front of a server: the
// shared plan cache plus the one Snapshot every request at the current
// (tracked identity, store generation) shares — the contract ETags and cached
// execution state already rest on: every edit bumps the generation under the
// tracked write lock. The snapshot is rebuilt lazily, by the first query
// after an edit and never by the edit, and without re-validation: Track
// validated the image and every edit method validates before applying.
type Engine struct {
	plans *PlanCache

	mu             sync.Mutex
	tr             *config.Tracked
	gen            uint64
	snap           *Snapshot
	builds, reuses uint64
}

// EngineStats are the engine's cumulative counters.
type EngineStats struct {
	PlanCacheStats
	SnapshotBuilds uint64 // queries that paid the O(n) snapshot rebuild
	SnapshotReuses uint64 // queries answered from the current snapshot
}

// NewEngine returns an engine whose plan cache holds planCap plans.
func NewEngine(planCap int) *Engine { return &Engine{plans: NewPlanCache(planCap)} }

// Stats returns the cumulative plan-cache and snapshot counters.
func (g *Engine) Stats() EngineStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return EngineStats{PlanCacheStats: g.plans.Stats(), SnapshotBuilds: g.builds, SnapshotReuses: g.reuses}
}

// Reset drops the snapshot and every cached plan, keeping the counters: a
// server whose tracked store is swapped wholesale (a replica re-bootstrap)
// resets, because the new store restarts its generation sequence and cached
// plans validate by generation alone.
func (g *Engine) Reset() {
	g.mu.Lock()
	g.tr, g.snap = nil, nil
	g.mu.Unlock()
	g.plans.Reset()
}

// Run evaluates the query text over tr under its read lock, through the
// shared plan cache, reading relations from tr's store. built is the time
// this call spent rebuilding the snapshot — zero unless it was the first
// query at a new generation.
func (g *Engine) Run(ctx context.Context, tr *config.Tracked, input string, args map[string]string) (res *Result, built time.Duration, err error) {
	err = tr.View(func(img *config.Image) error {
		// Edits hold the write lock, so the generation cannot move between
		// this read and the end of the evaluation.
		gen := tr.Store().Generation()
		g.mu.Lock()
		if g.tr != tr || g.gen != gen {
			start := time.Now()
			g.tr, g.gen, g.snap = tr, gen, NewSnapshot(img)
			g.snap.preps, _ = tr.Store().PreparedAll(g.snap.ids) // a tracked store holds them all
			built = time.Since(start)
			g.builds++
		} else {
			g.reuses++
		}
		ev := g.snap.Evaluator()
		g.mu.Unlock()
		ev.store, ev.preps, ev.prepsGen = tr.Store(), ev.snap.preps, gen
		ev.plans = g.plans
		res, err = ev.Run(ctx, input, args)
		return err
	})
	return res, built, err
}
