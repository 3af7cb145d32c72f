package query

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"
)

// Result is the full outcome of one planned evaluation: the bindings plus
// how they were obtained — the plan actually executed, whether it came from
// the cache, and the store generation it was valid for.
type Result struct {
	// Vars is the query's head variable list, in declared order.
	Vars     []string
	Bindings []Binding
	// Plan describes the executed plan; nil when the planner is off.
	Plan *PlanInfo
	// Cache is "hit", "miss", "replan" (generation moved since the cached
	// plan was built), "off" (planner disabled), or "uncached" (no plan
	// cache attached).
	Cache string
	// Generation is the relation store generation the evaluation ran
	// against (0 without a store).
	Generation uint64
}

// isParam reports whether a bind or attribute value is a $-parameter.
func isParam(s string) bool { return strings.HasPrefix(s, "$") }

// hasParams reports whether the query mentions any $-parameter.
func (q *Query) hasParams() bool {
	for _, c := range q.Conds {
		switch cc := c.(type) {
		case BindCond:
			if isParam(cc.RegionID) {
				return true
			}
		case AttrCond:
			if isParam(cc.Value) {
				return true
			}
		}
	}
	return false
}

// resolve substitutes $-parameters from args, returning a concrete query
// with the same conditions at the same indices (so a plan built on the
// parameterised form schedules the resolved one). Parameter-free queries
// are returned as-is; a parameter missing from args is an error.
func (q *Query) resolve(args map[string]string) (*Query, error) {
	if !q.hasParams() {
		return q, nil
	}
	rq := &Query{Vars: q.Vars, Conds: make([]Cond, len(q.Conds))}
	for i, c := range q.Conds {
		switch cc := c.(type) {
		case BindCond:
			if isParam(cc.RegionID) {
				v, ok := args[cc.RegionID[1:]]
				if !ok {
					return nil, fmt.Errorf("query: unbound parameter %s", cc.RegionID)
				}
				cc.RegionID = v
			}
			rq.Conds[i] = cc
		case AttrCond:
			if isParam(cc.Value) {
				v, ok := args[cc.Value[1:]]
				if !ok {
					return nil, fmt.Errorf("query: unbound parameter %s", cc.Value)
				}
				cc.Value = v
			}
			rq.Conds[i] = cc
		default:
			rq.Conds[i] = c
		}
	}
	return rq, nil
}

// normalizeQueryText collapses whitespace so textually equivalent queries
// share one plan cache slot.
func normalizeQueryText(input string) string {
	return strings.Join(strings.Fields(input), " ")
}

// cacheEntry is one cached plan. Entries are immutable after insertion —
// a generation change replaces the entry rather than mutating it — so
// concurrent readers need no locking beyond the cache's own.
type cacheEntry struct {
	key       string
	q         *Query
	hasParams bool
	plan      *Plan
	gen       uint64
	exec      *execState // parameter-free queries only; nil otherwise
}

// PlanCacheStats counts plan cache outcomes.
type PlanCacheStats struct {
	Hits    uint64 // fresh cached plan served
	Misses  uint64 // query parsed and planned from scratch
	Replans uint64 // cached plan invalidated by a store generation change
}

// PlanCache is an LRU cache of query plans keyed by normalised query text.
// One cache serves one configuration: entries are validated against the
// relation store's generation and replanned when it moves, which is what
// makes a long-lived cache safe in front of an edited store. It is safe
// for concurrent use (the HTTP layer shares one across requests).
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	stats   PlanCacheStats
}

// NewPlanCache returns an empty plan cache holding at most capacity plans
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Reset drops every cached plan, keeping the counters. Generation
// validation assumes one store behind the cache; a server that swaps its
// store wholesale (a replica re-bootstrapping from a new primary epoch)
// resets so a fresh store's restarted generation sequence cannot collide
// with stale entries.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
}

// Stats returns the cumulative hit/miss/replan counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// get returns the entry for key, bumping its recency. It counts a hit only
// when the entry is fresh for gen; a stale entry counts a replan and is
// reported with stale=true so the caller rebuilds and put()s a fresh one.
func (c *PlanCache) get(key string, gen uint64) (e *cacheEntry, stale, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.stats.Misses++
		return nil, false, false
	}
	c.ll.MoveToFront(el)
	entry := el.Value.(*cacheEntry)
	if entry.gen != gen {
		c.stats.Replans++
		return entry, true, true
	}
	c.stats.Hits++
	return entry, false, true
}

// put inserts or replaces the entry under its key, evicting the least
// recently used plan past capacity.
func (c *PlanCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// Run parses, plans and evaluates a query in one step, consulting the plan
// cache (keyed by normalised query text, validated against the store
// generation) and resolving $-parameters from args. It is the entry point
// the HTTP layer uses; EvalString remains the bindings-only convenience.
func (e *Evaluator) Run(ctx context.Context, input string, args map[string]string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Generation: e.generation()}
	if e.noPlanner {
		q, err := Parse(input)
		if err != nil {
			return nil, err
		}
		rq, err := q.resolve(args)
		if err != nil {
			return nil, err
		}
		res.Cache = "off"
		res.Vars = q.Vars
		res.Bindings, err = e.evalWrittenOrder(ctx, rq)
		if err != nil {
			return nil, err
		}
		return res, nil
	}

	var entry *cacheEntry
	if e.plans == nil {
		q, err := Parse(input)
		if err != nil {
			return nil, err
		}
		entry = &cacheEntry{q: q, hasParams: q.hasParams(), plan: e.buildPlan(q), gen: res.Generation}
		res.Cache = "uncached"
	} else {
		key := normalizeQueryText(input)
		cached, stale, ok := e.plans.get(key, res.Generation)
		switch {
		case ok && !stale:
			entry = cached
			res.Cache = "hit"
		case ok && stale:
			// The AST is still valid; only the plan (and any cached
			// execution state) reflects the old generation.
			entry = &cacheEntry{key: key, q: cached.q, hasParams: cached.hasParams,
				plan: e.buildPlan(cached.q), gen: res.Generation}
			res.Cache = "replan"
		default:
			q, err := Parse(input)
			if err != nil {
				return nil, err
			}
			entry = &cacheEntry{key: key, q: q, hasParams: q.hasParams(),
				plan: e.buildPlan(q), gen: res.Generation}
			res.Cache = "miss"
		}
	}
	bindings, info, err := e.execPlanned(ctx, entry, args)
	if err != nil {
		return nil, err
	}
	if e.plans != nil && res.Cache != "hit" {
		e.plans.put(entry)
	}
	res.Vars = entry.q.Vars
	res.Bindings, res.Plan = bindings, info
	return res, nil
}

// execPlanned resolves parameters, obtains execution state (reusing the
// entry's cached state for parameter-free queries), runs the join and
// assembles the executed-plan description. It may fill entry.exec on a
// parameter-free first execution — the one mutation entries see before
// being published to the cache.
func (e *Evaluator) execPlanned(ctx context.Context, entry *cacheEntry, args map[string]string) ([]Binding, *PlanInfo, error) {
	rq, err := entry.q.resolve(args)
	if err != nil {
		return nil, nil, err
	}
	ex := entry.exec
	if ex == nil {
		ex, err = e.prepareExec(ctx, rq, entry.plan)
		if err != nil {
			return nil, nil, err
		}
		if !entry.hasParams {
			entry.exec = ex
		}
	}
	bindings, err := e.runJoin(ctx, rq, entry.plan, ex)
	if err != nil {
		return nil, nil, err
	}
	info := entry.plan.Info()
	info.Pushed = ex.pushed
	info.Candidates = make(map[string]int, len(ex.cand))
	for v, cand := range ex.cand {
		info.Candidates[v] = len(cand)
	}
	return bindings, &info, nil
}

// generation returns the attached store's edit generation, 0 without one.
func (e *Evaluator) generation() uint64 {
	if e.store == nil {
		return 0
	}
	return e.store.Generation()
}
