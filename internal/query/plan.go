package query

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cardirect/internal/core"
)

// This file implements the cost-based query planner. Written-order
// evaluation (evalWrittenOrder) binds variables and checks conditions in
// the order the user typed them, so a query leading with its percent
// condition pays the worst-case join even when a bind or relation condition
// would prune 99% of candidates. The planner instead:
//
//   - estimates per-condition selectivity — bindings pin to one region,
//     attribute filters are counted exactly against the configuration,
//     relation conditions with one side pinned are probed through the
//     relation store's row read of the pin (core.RelationStore.RelateRow),
//     and percent conditions are heuristically the most expensive and always
//     scheduled last;
//   - orders variable binding smallest-candidate-set first, preferring
//     variables connected to already-ordered ones (joins over cross
//     products);
//   - schedules each relation/percent condition at the earliest join depth
//     where its variables are bound, most selective first, so failing
//     bindings are cut off as high in the search tree as possible;
//   - pushes down every relation condition with one side pinned to a single
//     region: one store row read filters the other side's candidate set
//     before the join starts, negated and pinned-primary conditions included.
//
// Plans depend only on the query text and the store generation, so they are
// cacheable (see PlanCache); the per-execution candidate state lives in
// execState.

// PlanInfo describes, for API consumers, how a query was (or will be)
// executed: the chosen variable binding order, the scheduled join
// conditions in check order, the conditions enforced by candidate pushdown
// before the join, and the candidate-set size per variable entering the
// join.
type PlanInfo struct {
	Order      []string       `json:"order"`
	Conds      []string       `json:"conds"`
	Pushed     []string       `json:"pushed,omitempty"`
	Candidates map[string]int `json:"candidates,omitempty"`
}

// planCond is one scheduled relation or percent condition.
type planCond struct {
	isPct   bool
	rel     RelCond
	pct     PctCond
	condIdx int     // index into Query.Conds, keys execState.enforced
	sel     float64 // estimated fraction of pairs passing
	text    string  // the condition as written; parameters never reach it
}

// Plan is the reusable result of planning one query against one store
// generation: the variable order and the per-depth condition schedule.
// Plans are immutable after buildPlan returns and safe to share between
// goroutines.
type Plan struct {
	order []string // variable binding order
	pos   map[string]int
	steps [][]planCond // steps[d]: conds checkable once order[:d+1] is bound
	rels  []planCond   // every relation condition, most selective first (pushdown order)
	info  PlanInfo     // Order + Conds; Pushed/Candidates are per-execution
}

// Info returns the plan's static description (Order and Conds; the
// execution-dependent Pushed/Candidates fields are empty).
func (p *Plan) Info() PlanInfo { return p.info }

// selHeuristicRel is the selectivity of a relation condition with no side
// pinned to a known region, so no store row to probe: proportional to how
// many of the nine single-tile relations the allowed set admits.
func selHeuristicRel(rels core.RelationSet) float64 {
	return clampSel(float64(rels.Len()) / 9)
}

// selHeuristicPct estimates a percent condition from its comparison alone.
func selHeuristicPct(c PctCond) float64 {
	switch c.Op {
	case ">=", ">":
		if c.Value <= 0 {
			return 0.95 // pct ≥ 0 holds for every pair
		}
		return 0.3
	case "<=", "<":
		return 0.7
	default: // "="
		return 0.05
	}
}

func clampSel(s float64) float64 {
	if s < 0.01 {
		return 0.01
	}
	if s > 0.99 {
		return 0.99
	}
	return s
}

// buildPlan plans the query against the evaluator's current configuration.
// Unresolved parameters are planned conservatively (a parameter binding
// still pins its variable; a parameter attribute value gets a default
// selectivity) so one plan serves every argument set.
func (e *Evaluator) buildPlan(q *Query) *Plan {
	n := len(e.snap.ids)
	if n == 0 {
		n = 1
	}
	est := make(map[string]float64, len(q.Vars))
	pinnedID := make(map[string]string, len(q.Vars))
	for _, v := range q.Vars {
		est[v] = float64(n)
	}

	// Pass 1: bindings and attribute filters shrink their variable's
	// estimate directly.
	for _, c := range q.Conds {
		switch cc := c.(type) {
		case BindCond:
			est[cc.Var] = 1
			if !isParam(cc.RegionID) {
				pinnedID[cc.Var] = cc.RegionID
			}
		case AttrCond:
			sel := 0.5
			if idx := e.attrIndex(cc.Attr); idx != nil && !isParam(cc.Value) {
				// Exact count through the secondary attribute index: one
				// map lookup instead of a scan over the configuration.
				match := len(idx[cc.Value])
				sel = clampSel(float64(match) / float64(n))
				if cc.Negated {
					sel = 1 - sel
				}
			}
			est[cc.Var] *= sel
		}
	}

	// Pass 2: relation conditions. With one side pinned to a known region
	// the selectivity is probed, exactly, through the store's row of the pin
	// and shrinks the free side's estimate; otherwise a tile-count heuristic
	// orders the condition among its peers.
	var conds []planCond
	for i, c := range q.Conds {
		switch cc := c.(type) {
		case RelCond:
			sel := selHeuristicRel(cc.Rels)
			if cc.Negated {
				sel = clampSel(1 - sel)
			}
			free := ""
			if pin, ok := pinnedID[cc.Right]; ok && pinnedID[cc.Left] == "" {
				sel = e.probeSel(pin, cc, true)
				free = cc.Left
			} else if pin, ok := pinnedID[cc.Left]; ok && pinnedID[cc.Right] == "" {
				sel = e.probeSel(pin, cc, false)
				free = cc.Right
			}
			if free != "" {
				est[free] *= sel
			}
			conds = append(conds, planCond{rel: cc, condIdx: i, sel: sel, text: cc.String()})
		case PctCond:
			conds = append(conds, planCond{isPct: true, pct: cc, condIdx: i, sel: selHeuristicPct(cc), text: cc.String()})
		}
	}

	// Variable order: greedily take the smallest estimated candidate set,
	// discounting variables joined to already-ordered ones — following a
	// join edge prunes through scheduled conditions, a cross product
	// cannot. Ties keep head order, so plans are deterministic.
	order := make([]string, 0, len(q.Vars))
	chosen := make(map[string]bool, len(q.Vars))
	for len(order) < len(q.Vars) {
		best := -1
		var bestScore float64
		for i, v := range q.Vars {
			if chosen[v] {
				continue
			}
			links := 0
			for _, pc := range conds {
				var l, r string
				if pc.isPct {
					l, r = pc.pct.Left, pc.pct.Right
				} else {
					l, r = pc.rel.Left, pc.rel.Right
				}
				if (l == v && chosen[r]) || (r == v && chosen[l]) {
					links++
				}
			}
			score := est[v] / math.Pow(4, float64(links))
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		chosen[q.Vars[best]] = true
		order = append(order, q.Vars[best])
	}

	pos := make(map[string]int, len(order))
	for i, v := range order {
		pos[v] = i
	}

	// Schedule each condition at the first depth where both variables are
	// bound; within a depth, qualitative before quantitative, then most
	// selective first, then written order.
	steps := make([][]planCond, len(order))
	for _, pc := range conds {
		var l, r string
		if pc.isPct {
			l, r = pc.pct.Left, pc.pct.Right
		} else {
			l, r = pc.rel.Left, pc.rel.Right
		}
		d := pos[l]
		if pos[r] > d {
			d = pos[r]
		}
		steps[d] = append(steps[d], pc)
	}
	for d := range steps {
		sort.SliceStable(steps[d], func(i, j int) bool {
			a, b := steps[d][i], steps[d][j]
			if a.isPct != b.isPct {
				return !a.isPct
			}
			if a.sel != b.sel {
				return a.sel < b.sel
			}
			return a.condIdx < b.condIdx
		})
	}

	// Pushdown order: every relation condition, most selective first.
	// Eligibility (exactly one side pinned at runtime) is re-checked per
	// execution, because parameters change which side is pinned.
	rels := make([]planCond, 0, len(conds))
	for _, pc := range conds {
		if !pc.isPct {
			rels = append(rels, pc)
		}
	}
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].sel < rels[j].sel })

	info := PlanInfo{Order: order}
	for _, step := range steps {
		for _, pc := range step {
			info.Conds = append(info.Conds, pc.text)
		}
	}
	return &Plan{order: order, pos: pos, steps: steps, rels: rels, info: info}
}

// probeSel estimates the selectivity of a relation condition whose pinned
// side is the region pin: exact through the store's row read of pin, the
// tile-count heuristic when there is no such row (an unknown pin, a world of
// one region).
func (e *Evaluator) probeSel(pin string, cc RelCond, pinnedIsRef bool) float64 {
	ids := e.snap.ids
	sel := selHeuristicRel(cc.Rels)
	if rels, err := e.storeRow(context.TODO(), pin, pinnedIsRef, ids); err == nil && len(ids) > 1 {
		matched := 0
		for k, rel := range rels {
			if ids[k] != pin && cc.Rels.Contains(rel) {
				matched++
			}
		}
		sel = float64(matched) / float64(len(ids)-1)
	}
	if cc.Negated {
		sel = 1 - sel
	}
	return clampSel(sel)
}

// execState is the per-execution companion of a Plan: the post-pushdown
// candidate sets and the conditions pushdown already enforced. For
// parameter-free queries it depends only on the plan and the store
// generation, so the plan cache retains it and warm executions skip
// straight to the join. It is immutable after prepareExec returns.
type execState struct {
	cand     map[string][]string
	enforced []bool // by Query.Conds index: fully enforced before the join
	pushed   []string
}

// buildCandidates computes the initial per-variable candidate sets from the
// bind and attribute conditions — shared verbatim between the planner and
// written-order evaluation so both report identical errors. Candidate
// slices are always sorted.
func (e *Evaluator) buildCandidates(q *Query) (map[string][]string, error) {
	candidates := make(map[string][]string, len(q.Vars))
	for _, v := range q.Vars {
		cand := e.snap.ids
		for _, c := range q.Conds {
			switch cc := c.(type) {
			case BindCond:
				if cc.Var == v {
					if e.snap.regs[cc.RegionID] == nil {
						return nil, fmt.Errorf("query: unknown region %q in %v", cc.RegionID, cc)
					}
					// Pin by binary search in the (sorted) set narrowed so
					// far, not an O(n) merge against a one-element slice.
					i := sort.SearchStrings(cand, cc.RegionID)
					if i < len(cand) && cand[i] == cc.RegionID {
						cand = cand[i : i+1 : i+1]
					} else {
						cand = nil
					}
				}
			case AttrCond:
				if cc.Var != v {
					continue
				}
				idx := e.attrIndex(cc.Attr)
				if idx == nil {
					return nil, fmt.Errorf("query: unknown attribute %q in %v", cc.Attr, cc)
				}
				// The secondary attribute index answers the filter with one
				// sorted-set operation: intersect with the matching bucket,
				// or subtract it for a negated condition — identical to the
				// per-region accessor scan it replaces.
				match := idx[cc.Value]
				if cc.Negated {
					cand = subtractSorted(cand, match)
				} else {
					cand = intersectSorted(cand, match)
				}
			}
		}
		candidates[v] = cand
	}
	return candidates, nil
}

// prepareExec builds the execution state for a resolved query: initial
// candidates from bindings and attribute filters, then relation-condition
// pushdown in selectivity order. q must be parameter-free (resolve first).
func (e *Evaluator) prepareExec(ctx context.Context, q *Query, plan *Plan) (*execState, error) {
	candidates, err := e.buildCandidates(q)
	if err != nil {
		return nil, err
	}
	ex := &execState{cand: candidates, enforced: make([]bool, len(q.Conds))}
	for _, pc := range plan.rels {
		// The planned conditions may carry unresolved parameters; the
		// resolved query's condition at the same index is concrete.
		rc, ok := q.Conds[pc.condIdx].(RelCond)
		if !ok {
			continue
		}
		var pinnedVar, freeVar string
		var pinnedIsRef bool
		switch {
		case len(candidates[rc.Right]) == 1 && len(candidates[rc.Left]) >= 2:
			pinnedVar, freeVar, pinnedIsRef = rc.Right, rc.Left, true
		case len(candidates[rc.Left]) == 1 && len(candidates[rc.Right]) >= 2:
			pinnedVar, freeVar, pinnedIsRef = rc.Left, rc.Right, false
		default:
			continue
		}
		pinID := candidates[pinnedVar][0]
		keep, err := e.pushCond(ctx, rc, pinID, pinnedIsRef, candidates[freeVar])
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Any other pushdown failure falls back to the unpruned join,
			// which surfaces errors with their usual context.
			continue
		}
		candidates[freeVar] = keep
		ex.enforced[pc.condIdx] = true
		ex.pushed = append(ex.pushed, pc.text)
	}
	return ex, nil
}

// pushCond filters cand down to the ids satisfying the relation condition
// against the pinned region with one store row read (storeRow: len(cand)
// kernel runs, either side pinned, negation included). It returns exactly
// the ids the join's own checks would keep (the l==r candidate follows the
// "a region is only B of itself" rule), so pushdown never changes results.
func (e *Evaluator) pushCond(ctx context.Context, rc RelCond, pinID string, pinnedIsRef bool, cand []string) ([]string, error) {
	rels, err := e.storeRow(ctx, pinID, pinnedIsRef, cand)
	if err != nil {
		return nil, err
	}
	// The plan cache retains the result of a parameter-free query, so it is
	// counted first and built at its own size: a selective condition must not
	// pin a cand-sized array per cached plan (12.5 KiB at n = 800).
	n := 0
	for _, rel := range rels {
		if rc.Rels.Contains(rel) != rc.Negated {
			n++
		}
	}
	keep := make([]string, 0, n)
	for k, rel := range rels {
		if rc.Rels.Contains(rel) != rc.Negated {
			keep = append(keep, cand[k])
		}
	}
	return keep, nil
}

// runJoin executes the planned backtracking join: variables bind in plan
// order, and each condition is checked exactly once, at the first depth
// where its variables are bound, unless pushdown already enforced it.
// Semantics match evalWrittenOrder: a variable pair bound to the same
// region is B of itself (100% in tile B), and bindings are returned sorted
// by the head variables.
func (e *Evaluator) runJoin(ctx context.Context, q *Query, plan *Plan, ex *execState) ([]Binding, error) {
	var out []Binding
	assign := make(map[string]string, len(plan.order))
	var rec func(i int) error
	rec = func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i == len(plan.order) {
			b := make(Binding, len(assign))
			for k, v := range assign {
				b[k] = v
			}
			out = append(out, b)
			return nil
		}
		v := plan.order[i]
		for _, id := range ex.cand[v] {
			assign[v] = id
			ok := true
			for _, pc := range plan.steps[i] {
				if ex.enforced[pc.condIdx] {
					continue
				}
				if pc.isPct {
					l, r := assign[pc.pct.Left], assign[pc.pct.Right]
					var pct float64
					if l == r {
						if pc.pct.Tile == core.TileB {
							pct = 100 // a region is 100% B of itself
						}
					} else {
						m, err := e.Percent(l, r)
						if err != nil {
							return err
						}
						pct = m.Get(pc.pct.Tile)
					}
					if !comparePct(pct, pc.pct.Op, pc.pct.Value) {
						ok = false
					}
				} else {
					l, r := assign[pc.rel.Left], assign[pc.rel.Right]
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
					if pc.rel.Rels.Contains(rel) == pc.rel.Negated {
						ok = false
					}
				}
				if !ok {
					break
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

// subtractSorted returns the elements of a not present in b (both ascending
// sorted) with a single merge pass — the negated-attribute counterpart of
// intersectSorted.
func subtractSorted(a, b []string) []string {
	if len(a) == 0 {
		return nil
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// intersectSorted intersects two ascending sorted string slices with a
// single merge pass and one allocation — the hot set operation of candidate
// propagation and pushdown.
func intersectSorted(a, b []string) []string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
