package query

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
)

// Binding maps query variables to region ids — one query answer.
type Binding map[string]string

// Snapshot is the immutable, goroutine-safe part of query evaluation: what
// queries need from the document at one instant — sorted region ids, a copy
// of every region's attributes (sharing the document's polygon storage: O(n)
// words, no geometry copy) and the secondary attribute indexes. Any number
// of Evaluator shells may share one; a server keeps one per store generation
// (see Engine). The image is held only to read materialised Relation
// elements in the no-store fallback.
type Snapshot struct {
	img   *config.Image
	ids   []string
	preps []*core.Prepared // the Engine's store's forms, aligned with ids (Evaluator.storeRow)
	regs  map[string]*config.Region
	attrs map[string]*attr
}

// attr is one thematic attribute: its accessor and the secondary hash index
// value ↦ sorted region ids, built on first use — under a sync.Once because
// the built-in attributes live on the shared snapshot.
type attr struct {
	fn   func(*config.Region) string
	once sync.Once
	idx  map[string][]string
}

// NewSnapshot captures the image WITHOUT validating it: one O(n) pass, no
// geometry conversion. Callers that cannot vouch for the image go through
// NewEvaluator; a config.Tracked image is valid by construction (Track
// validates, and every edit method validates its geometry before applying).
func NewSnapshot(img *config.Image) *Snapshot {
	regions := make([]config.Region, len(img.Regions))
	copy(regions, img.Regions)
	s := &Snapshot{
		img:  img,
		ids:  make([]string, len(regions)),
		regs: make(map[string]*config.Region, len(regions)),
		attrs: map[string]*attr{
			"color": {fn: func(r *config.Region) string { return r.Color }},
			"name":  {fn: func(r *config.Region) string { return r.Name }},
		},
	}
	for i := range regions {
		// The copies stay valid if the image's Regions slice is reallocated
		// by an append elsewhere.
		s.ids[i] = regions[i].ID
		s.regs[regions[i].ID] = &regions[i]
	}
	sort.Strings(s.ids)
	return s
}

// Evaluator returns a fresh O(1) evaluator shell over the snapshot, with no
// store, index or plan cache attached. Shells are single-goroutine; any
// number may share one snapshot concurrently.
func (s *Snapshot) Evaluator() *Evaluator { return &Evaluator{snap: s} }

// Evaluator answers queries over one CARDIRECT configuration: a shared
// immutable Snapshot plus the context-bound mutable state of one caller.
// Pairwise relations come from the attached store when it holds the pair;
// otherwise they are computed lazily with Compute-CDR from the snapshot and
// memoised, so repeated queries pay the geometry cost once per ordered pair.
type Evaluator struct {
	snap      *Snapshot
	store     *core.RelationStore
	preps     []*core.Prepared // the store's forms aligned with snap.ids, see storeRow
	prepsGen  uint64           // store generation preps was fetched at
	live      *index.Live
	plans     *PlanCache
	noPlanner bool
	attrs     map[string]*attr // RegisterAttr overlay; never the snapshot's map
	fb        *fallback
}

// fallback is the no-store evaluation state, allocated on first use (a
// request answered from the relation store never touches it). It derives
// from the immutable snapshot, so it never goes stale; store-answered pairs
// are deliberately not memoised — a store read is a kernel run of tens of
// nanoseconds, and the store is the side that sees edits.
type fallback struct {
	preps map[string]*core.Prepared
	rels  map[[2]string]core.Relation
	pcts  map[[2]string]core.PercentMatrix
}

// NewEvaluator validates the configuration and prepares a one-shot evaluator
// (snapshot + shell + a private 64-entry plan cache) for it. The built-in
// thematic attributes are "color" and "name" (the paper's model allows any
// attribute set C; RegisterAttr adds more).
func NewEvaluator(img *config.Image) (*Evaluator, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	e := NewSnapshot(img).Evaluator()
	e.plans = NewPlanCache(64)
	return e, nil
}

// RegisterAttr adds a thematic attribute accessor usable in attribute
// conditions. The accessor must be a pure function of the region (the
// secondary attribute index memoises its values); re-registering a name
// starts a fresh index so the new accessor takes effect. It writes to this
// evaluator only — evaluators sharing the snapshot are unaffected.
func (e *Evaluator) RegisterAttr(name string, fn func(*config.Region) string) {
	if e.attrs == nil {
		e.attrs = make(map[string]*attr)
	}
	e.attrs[name] = &attr{fn: fn}
}

// attrIndex returns the secondary hash index for one thematic attribute —
// value ↦ sorted region ids — or nil for an unknown attribute. The index is
// built on first use (one pass over the snapshot, then every attribute filter
// and planner selectivity count is a map lookup) and, the snapshot being
// immutable, never goes stale.
func (e *Evaluator) attrIndex(name string) map[string][]string {
	a := e.attrs[name]
	if a == nil {
		if a = e.snap.attrs[name]; a == nil {
			return nil
		}
	}
	a.once.Do(func() {
		a.idx = make(map[string][]string)
		// ids is sorted, so every bucket comes out sorted — the form
		// intersectSorted/subtractSorted need.
		for _, id := range e.snap.ids {
			v := a.fn(e.snap.regs[id])
			a.idx[v] = append(a.idx[v], id)
		}
	})
	return a.idx
}

// UseStore wires a maintained core.RelationStore into the evaluator:
// Relation and Percent answer from it — computed from the store's prepared
// regions, so fresher than any materialised Relation elements — falling back to the evaluator's own lazy computation for pairs the store
// does not hold. The store's region names must be the configuration's
// region ids (as config.Track arranges). Pass nil to detach.
func (e *Evaluator) UseStore(s *core.RelationStore) {
	e.store, e.preps = s, nil
}

// storeRow returns the store's Prepared forms of the pinned region and of
// cand — a sorted subset of snap.ids, aligned with it by one merge walk — for
// core.RelationStore.RelateRow, or nils when there is no store or it lacks a
// snapshot region. The forms are fetched under one store lock per store
// generation (by the Engine, when it builds its snapshot), so a pushdown
// takes no lock and looks up no name per candidate.
func (e *Evaluator) storeRow(pinID string, cand []string) (pin *core.Prepared, row []*core.Prepared) {
	if e.store == nil {
		return nil, nil
	}
	if gen := e.store.Generation(); e.preps == nil || e.prepsGen != gen {
		e.preps, _ = e.store.PreparedAll(e.snap.ids)
		e.prepsGen = gen
	}
	ids := e.snap.ids
	k := sort.SearchStrings(ids, pinID)
	if e.preps == nil || k == len(ids) || ids[k] != pinID {
		return nil, nil
	}
	if row = e.preps; len(cand) != len(ids) {
		row = make([]*core.Prepared, len(cand))
		for i, j := 0, 0; i < len(cand); j++ {
			if ids[j] == cand[i] {
				row[i], i = e.preps[j], i+1
			}
		}
	}
	return e.preps[k], row
}

// UseIndex wires a maintained index.Live into the evaluator: the planner's
// selectivity probes and relation pushdown run window queries against it
// instead of bulk-loading transient trees. The index must cover the
// evaluator's configuration (as config.Track arranges). Pass nil to detach.
func (e *Evaluator) UseIndex(l *index.Live) {
	e.live = l
}

// SetPlanner toggles cost-based planning (on by default). With the planner
// off, Eval and Run bind variables and check conditions in written order —
// the reference semantics the planner's differential tests compare against.
func (e *Evaluator) SetPlanner(on bool) {
	e.noPlanner = !on
}

// SetPlanCache replaces the evaluator's plan cache (a fresh evaluator owns
// a private 64-entry cache). Sharing one cache across request-scoped
// evaluators over the same tracked configuration lets repeated queries skip
// parsing and planning; entries are validated against the store generation.
// Pass nil to disable plan caching.
func (e *Evaluator) SetPlanCache(c *PlanCache) {
	e.plans = c
}

// PlanCacheHandle returns the evaluator's current plan cache (nil when
// disabled).
func (e *Evaluator) PlanCacheHandle() *PlanCache { return e.plans }

// fallbackState returns the no-store evaluation state, allocating it on
// first use.
func (e *Evaluator) fallbackState() *fallback {
	if e.fb == nil {
		e.fb = &fallback{
			preps: map[string]*core.Prepared{},
			rels:  map[[2]string]core.Relation{},
			pcts:  map[[2]string]core.PercentMatrix{},
		}
	}
	return e.fb
}

// geometry converts a snapshot region to the algorithms' representation, on
// demand (an unknown id yields the empty region).
func (e *Evaluator) geometry(id string) geom.Region {
	if r := e.snap.regs[id]; r != nil {
		return r.Geometry()
	}
	return nil
}

// prepared returns the region's Prepared form, building and caching it on
// first use. All repeated-query geometry goes through this cache, so each
// region is normalised and edge-flattened at most once per evaluator.
func (e *Evaluator) prepared(id string) (*core.Prepared, error) {
	fb := e.fallbackState()
	if p, ok := fb.preps[id]; ok {
		return p, nil
	}
	p, err := core.Prepare(id, e.geometry(id))
	if err != nil {
		return nil, err
	}
	fb.preps[id] = p
	return p, nil
}

// Relation returns the cardinal direction relation of primary p versus
// reference q: the store's answer when it holds the pair, else a
// materialised relation of the configuration (trusted when present), else
// computed from geometry — the latter two memoised on first use.
func (e *Evaluator) Relation(p, q string) (core.Relation, error) {
	if e.store != nil {
		if r, err := e.store.Relation(p, q); err == nil {
			return r, nil
		}
	}
	fb, key := e.fallbackState(), [2]string{p, q}
	if r, ok := fb.rels[key]; ok {
		return r, nil
	}
	if entry, ok := e.snap.img.RelationBetween(p, q); ok {
		r, err := core.ParseRelation(entry.Type)
		if err == nil {
			fb.rels[key] = r
			return r, nil
		}
	}
	pa, err := e.prepared(p)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	pb, err := e.prepared(q)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	r, err := core.Relate(pa, pb, nil)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	fb.rels[key] = r
	return r, nil
}

// Percent returns the percentage matrix of primary p versus reference q:
// the store's answer when it holds the pair, else computed from
// geometry and memoised.
func (e *Evaluator) Percent(p, q string) (core.PercentMatrix, error) {
	if e.store != nil {
		if m, err := e.store.Percent(p, q); err == nil {
			return m, nil
		}
	}
	fb, key := e.fallbackState(), [2]string{p, q}
	if m, ok := fb.pcts[key]; ok {
		return m, nil
	}
	pa, err := e.prepared(p)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	pb, err := e.prepared(q)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	m, _, err := core.RelatePct(pa, pb, nil)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	fb.pcts[key] = m
	return m, nil
}

// EvalString parses and evaluates a query in one step, through the planner
// and plan cache (see Run for the full result).
func (e *Evaluator) EvalString(input string) ([]Binding, error) {
	return e.EvalStringCtx(context.Background(), input)
}

// EvalStringCtx is EvalString honoring a context (see EvalCtx).
func (e *Evaluator) EvalStringCtx(ctx context.Context, input string) ([]Binding, error) {
	res, err := e.Run(ctx, input, nil)
	if err != nil {
		return nil, err
	}
	return res.Bindings, nil
}

// Eval evaluates the query, returning every satisfying assignment of region
// ids to head variables in lexicographic order. Distinct variables may bind
// to the same region unless a condition forbids it, matching the relational
// semantics of the paper's query model.
func (e *Evaluator) Eval(q *Query) ([]Binding, error) {
	return e.EvalCtx(context.Background(), q)
}

// EvalCtx is Eval honoring a context: the join loop checks for cancellation
// at every candidate binding, so a server timeout aborts an expensive
// multi-variable join mid-search with the context's error. The query is
// evaluated through the cost-based planner unless SetPlanner(false); the
// text entry points (Run, EvalString) additionally consult the plan cache.
func (e *Evaluator) EvalCtx(ctx context.Context, q *Query) ([]Binding, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.noPlanner {
		return e.evalWrittenOrder(ctx, q)
	}
	rq, err := q.resolve(nil)
	if err != nil {
		return nil, err
	}
	plan := e.buildPlan(q)
	ex, err := e.prepareExec(ctx, rq, plan)
	if err != nil {
		return nil, err
	}
	return e.runJoin(ctx, rq, plan, ex)
}

// evalWrittenOrder evaluates the query in the user's written order — the
// pre-planner semantics, kept as the planner-off path and as the reference
// implementation the planner is differentially tested against.
func (e *Evaluator) evalWrittenOrder(ctx context.Context, q *Query) ([]Binding, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Pre-index conditions per variable for cheap unit propagation:
	// bindings and attribute filters restrict candidate sets up-front.
	candidates, err := e.buildCandidates(q)
	if err != nil {
		return nil, err
	}
	// Relation and percentage conditions, grouped for the join loop.
	var rels []RelCond
	var pcts []PctCond
	for _, c := range q.Conds {
		switch cc := c.(type) {
		case RelCond:
			rels = append(rels, cc)
		case PctCond:
			pcts = append(pcts, cc)
		}
	}

	// Indexed pre-filter: a relation condition whose reference side is
	// already pinned to one region is a directional selection, so its
	// primary side can be pruned through R-tree window queries before the
	// join loop ever binds it. The exact refinement inside FindRelated makes
	// the filter precise, not just sound. Materialised relations are trusted
	// over geometry, so the filter only applies when the configuration
	// carries none; any filter failure just falls back to the unpruned loop,
	// which surfaces errors with their usual context.
	if len(e.snap.img.Relations) == 0 {
		for _, rc := range rels {
			if rc.Negated || rc.Left == rc.Right {
				continue
			}
			refCand := candidates[rc.Right]
			if len(refCand) != 1 || len(candidates[rc.Left]) < 2 {
				continue
			}
			// pushRTree prefers the maintained live index over bulk-loading
			// a transient tree, and honors the context; a filter failure
			// just falls back to the unpruned loop, which surfaces errors
			// with their usual context.
			keep, err := e.pushRTree(ctx, rc, refCand[0], candidates[rc.Left])
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			candidates[rc.Left] = keep
		}
	}

	var out []Binding
	assign := make(map[string]string, len(q.Vars))
	var rec func(i int) error
	rec = func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i == len(q.Vars) {
			b := make(Binding, len(assign))
			for k, v := range assign {
				b[k] = v
			}
			out = append(out, b)
			return nil
		}
		v := q.Vars[i]
		for _, id := range candidates[v] {
			assign[v] = id
			ok := true
			// Check every relation condition whose variables are all bound.
			for _, rc := range rels {
				l, lok := assign[rc.Left]
				r, rok := assign[rc.Right]
				if !lok || !rok {
					continue
				}
				var rel core.Relation
				if l == r {
					rel = core.B // a region is only B of itself
				} else {
					var err error
					rel, err = e.Relation(l, r)
					if err != nil {
						return err
					}
				}
				if rc.Rels.Contains(rel) == rc.Negated {
					ok = false
					break
				}
			}
			if ok {
				for _, pc := range pcts {
					l, lok := assign[pc.Left]
					r, rok := assign[pc.Right]
					if !lok || !rok {
						continue
					}
					var pct float64
					if l == r {
						if pc.Tile == core.TileB {
							pct = 100 // a region is 100% B of itself
						}
					} else {
						m, err := e.Percent(l, r)
						if err != nil {
							return err
						}
						pct = m.Get(pc.Tile)
					}
					if !comparePct(pct, pc.Op, pc.Value) {
						ok = false
						break
					}
				}
			}
			if ok {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			delete(assign, v)
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	sortBindings(out, q.Vars)
	return out, nil
}

// comparePct applies a pct comparison with a small absolute tolerance on
// equality (percentages come from floating-point geometry).
func comparePct(pct float64, op string, value float64) bool {
	const eps = 1e-9
	switch op {
	case ">=":
		return pct >= value-eps
	case "<=":
		return pct <= value+eps
	case ">":
		return pct > value+eps
	case "<":
		return pct < value-eps
	default: // "="
		d := pct - value
		if d < 0 {
			d = -d
		}
		return d <= eps
	}
}

func sortBindings(bs []Binding, vars []string) {
	sort.Slice(bs, func(i, j int) bool {
		for _, v := range vars {
			if bs[i][v] != bs[j][v] {
				return bs[i][v] < bs[j][v]
			}
		}
		return false
	})
}
