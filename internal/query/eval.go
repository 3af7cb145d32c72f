package query

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/index"
)

// Binding maps query variables to region ids — one query answer.
type Binding map[string]string

// Snapshot is the immutable, goroutine-safe part of query evaluation: what
// queries need from the document at one instant — sorted region ids, a copy
// of every region's attributes (sharing the document's polygon storage: O(n)
// words, no geometry copy) and the secondary attribute indexes. Any number
// of Evaluator shells may share one; a server keeps one per store generation
// (see Engine). The document's materialised Relation elements are not read:
// relations come from a store over the regions' geometry (see UseStore).
type Snapshot struct {
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
// store or plan cache attached. Shells are single-goroutine; any
// number may share one snapshot concurrently.
func (s *Snapshot) Evaluator() *Evaluator { return &Evaluator{snap: s} }

// Evaluator answers queries over one CARDIRECT configuration: a shared
// immutable Snapshot plus the context-bound mutable state of one caller.
// Every relation and percent matrix is read from one core.RelationStore —
// the one UseStore attached, or a private one the evaluator builds over the
// snapshot's regions the first time it needs a relation.
type Evaluator struct {
	snap      *Snapshot
	store     *core.RelationStore // attached (UseStore) or private, see relations
	preps     []*core.Prepared    // the store's forms aligned with snap.ids, see storeRow
	prepsGen  uint64              // store generation preps was fetched at
	plans     *PlanCache
	noPlanner bool
}

// NewEvaluator validates the configuration and prepares a one-shot evaluator
// (snapshot + shell + a private 64-entry plan cache) for it. The built-in
// thematic attributes are "color" and "name" (the paper's model allows any
// attribute set C).
func NewEvaluator(img *config.Image) (*Evaluator, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	e := NewSnapshot(img).Evaluator()
	e.plans = NewPlanCache(64)
	return e, nil
}

// attrIndex returns the secondary hash index for one thematic attribute —
// value ↦ sorted region ids — or nil for an unknown attribute. The index is
// built on first use (one pass over the snapshot, then every attribute filter
// and planner selectivity count is a map lookup) and, the snapshot being
// immutable, never goes stale.
func (e *Evaluator) attrIndex(name string) map[string][]string {
	a := e.snap.attrs[name]
	if a == nil {
		return nil
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

// UseStore makes s the store Relation, Percent and the pushdown row reads
// answer from — computed from the store's prepared regions, so an edited
// store is seen at once. The store must hold every region of the snapshot
// under its id, as config.Track arranges; a region it lacks fails the query
// with core.ErrUnknownRegion. Pass nil to go back to the private store.
func (e *Evaluator) UseStore(s *core.RelationStore) {
	e.store, e.preps = s, nil
}

// relations returns the store the evaluator reads from, building the private
// one — one Prepare per snapshot region, no pair computed — when none is
// attached. It is never edited, so its generation stays 0.
func (e *Evaluator) relations() (*core.RelationStore, error) {
	if e.store == nil {
		regions := make([]core.NamedRegion, len(e.snap.ids))
		for i, id := range e.snap.ids {
			regions[i] = core.NamedRegion{Name: id, Region: e.snap.regs[id].Geometry()}
		}
		s, err := core.NewRelationStore(regions, core.StoreOptions{Pct: true})
		if err != nil {
			return nil, err
		}
		e.store = s
	}
	return e.store, nil
}

// storeRow is the row read behind pushdown and selectivity probes: the
// relation of every cand[k] — a sorted subset of snap.ids — against the
// pinned region (cand[k] as primary when pinnedIsRef, the transpose
// otherwise; B where cand[k] is the pin), through
// core.RelationStore.RelateRow. The store's Prepared forms are fetched under
// one store lock per store generation (by the Engine, when it builds its
// snapshot) and aligned with cand by one merge walk, so a row takes no lock
// and looks up no name per candidate.
func (e *Evaluator) storeRow(ctx context.Context, pinID string, pinnedIsRef bool, cand []string) ([]core.Relation, error) {
	s, err := e.relations()
	if err != nil {
		return nil, err
	}
	if gen := s.Generation(); e.preps == nil || e.prepsGen != gen {
		if e.preps, err = s.PreparedAll(e.snap.ids); err != nil {
			return nil, err
		}
		e.prepsGen = gen
	}
	ids := e.snap.ids
	k := sort.SearchStrings(ids, pinID)
	if k == len(ids) || ids[k] != pinID {
		return nil, fmt.Errorf("query: region %q: %w", pinID, core.ErrUnknownRegion)
	}
	row := e.preps
	if len(cand) != len(ids) {
		row = make([]*core.Prepared, len(cand))
		for i, j := 0, 0; i < len(cand); j++ {
			if ids[j] == cand[i] {
				row[i], i = e.preps[j], i+1
			}
		}
	}
	rels := make([]core.Relation, len(cand))
	return rels, s.RelateRow(ctx, e.preps[k], pinnedIsRef, row, rels)
}

// UseIndex does nothing: relation pushdown reads store rows, not R-tree
// windows. The method remains only because bench/replay.go:299 calls it and
// bench/ changes in `benchmark` PRs alone; the next one drops the call and
// this method with it.
func (e *Evaluator) UseIndex(*index.Live) {}

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

// Relation returns the cardinal direction relation of primary p versus
// reference q, read from the store.
func (e *Evaluator) Relation(p, q string) (core.Relation, error) {
	s, err := e.relations()
	if err != nil {
		return 0, err
	}
	return s.Relation(p, q)
}

// Percent returns the percentage matrix of primary p versus reference q,
// read from the store (an attached store must answer percentages,
// core.StoreOptions.Pct).
func (e *Evaluator) Percent(p, q string) (core.PercentMatrix, error) {
	s, err := e.relations()
	if err != nil {
		return core.PercentMatrix{}, err
	}
	return s.Percent(p, q)
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
	plan, err := e.buildPlan(ctx, q)
	if err != nil {
		return nil, err
	}
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
