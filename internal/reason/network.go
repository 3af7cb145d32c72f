package reason

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// Network is a constraint network of cardinal direction constraints over
// region variables: directed constraints x R y (x primary, y reference)
// where R is a set of basic relations (disjunctive information). Consistency
// of such networks is the reasoning problem studied for this relation model
// in the paper's reference [21].
type Network struct {
	names []string
	idx   map[string]int
	cons  map[[2]int]core.RelationSet
}

// NewNetwork returns an empty constraint network.
func NewNetwork() *Network {
	return &Network{idx: map[string]int{}, cons: map[[2]int]core.RelationSet{}}
}

// AddVariable declares a region variable; adding an existing name is a no-op.
func (n *Network) AddVariable(name string) {
	if _, ok := n.idx[name]; ok {
		return
	}
	n.idx[name] = len(n.names)
	n.names = append(n.names, name)
}

// Variables returns the variable names in declaration order.
func (n *Network) Variables() []string {
	out := make([]string, len(n.names))
	copy(out, n.names)
	return out
}

// Constrain asserts x R y for some R in the given set, intersecting with any
// existing constraint on the ordered pair. Unknown variables are declared
// implicitly. An empty constraint set is rejected.
func (n *Network) Constrain(x, y string, rs core.RelationSet) error {
	if rs.IsEmpty() {
		return fmt.Errorf("reason: empty constraint between %q and %q", x, y)
	}
	n.AddVariable(x)
	n.AddVariable(y)
	key := [2]int{n.idx[x], n.idx[y]}
	if old, ok := n.cons[key]; ok {
		rs = old.Intersect(rs)
		if rs.IsEmpty() {
			// Record the contradiction; Solve reports it.
			n.cons[key] = rs
			return nil
		}
	}
	n.cons[key] = rs
	return nil
}

// ConstrainRel is Constrain with a single definite relation.
func (n *Network) ConstrainRel(x, y string, r core.Relation) error {
	return n.Constrain(x, y, core.NewRelationSet(r))
}

// Refine runs path-consistency-style pruning: for every pair of constraints
// x→y and y→z it removes from any x→z constraint the relations outside the
// composition, and prunes each constraint to relations that have a
// consistent converse when the opposite direction is also constrained. It
// returns false when some constraint becomes empty (the network is then
// certainly inconsistent). Refine is a sound filter, not a decision
// procedure — use Solve for that.
func (n *Network) Refine() bool {
	changed := true
	for changed {
		changed = false
		// Converse pruning.
		for key, rs := range n.cons {
			op := [2]int{key[1], key[0]}
			ors, ok := n.cons[op]
			if !ok {
				continue
			}
			pruned := rs
			for _, r := range rs.Relations() {
				inv := Inverse(r)
				if inv.Intersect(ors).IsEmpty() {
					pruned.Remove(r)
				}
			}
			if !pruned.Equal(rs) {
				n.cons[key] = pruned
				changed = true
			}
			if pruned.IsEmpty() {
				return false
			}
		}
		// Composition pruning over explicit triangles.
		for k1, r1 := range n.cons {
			for k2, r2 := range n.cons {
				if k1[1] != k2[0] || k1[0] == k2[1] {
					continue
				}
				key := [2]int{k1[0], k2[1]}
				rs, ok := n.cons[key]
				if !ok {
					continue
				}
				comp := CompositionSets(r1, r2)
				pruned := rs.Intersect(comp)
				if !pruned.Equal(rs) {
					n.cons[key] = pruned
					changed = true
				}
				if pruned.IsEmpty() {
					return false
				}
			}
		}
	}
	return true
}

// Witness is a concrete realisation of a consistent network: one REG* region
// per variable, built from axis scenarios and blob placement. The tests
// re-check every constraint on the witness with core.ComputeCDR.
type Witness struct {
	Regions map[string]geom.Region
}

// SolveOptions bounds the scenario search.
type SolveOptions struct {
	// MaxScenarios caps the number of atomic axis-scenario pairs examined;
	// 0 means the default (100000).
	MaxScenarios int
	// Workers is the fan width of SolveParallel (ignored by the sequential
	// entry points); 0 means the default (max(8, GOMAXPROCS)).
	Workers int
}

// ErrSearchLimit is returned when Solve exhausts its scenario budget before
// deciding; the network may still be consistent.
var ErrSearchLimit = fmt.Errorf("reason: scenario search limit reached")

// scenarioBudget is the shared atomic scenario counter: the sequential
// solver owns one alone, the parallel solver shares one across every branch
// goroutine so the total work stays bounded by MaxScenarios regardless of
// fan width.
type scenarioBudget struct{ left atomic.Int64 }

func newScenarioBudget(n int) *scenarioBudget {
	b := &scenarioBudget{}
	b.left.Store(int64(n))
	return b
}

// take consumes one scenario; it reports false when the budget was already
// exhausted.
func (b *scenarioBudget) take() bool { return b.left.Add(-1) >= 0 }

// spent reports whether the budget is exhausted.
func (b *scenarioBudget) spent() bool { return b.left.Load() <= 0 }

// Solve decides consistency of the network over REG* regions and, when
// consistent, returns a witness realisation. The decision procedure
// backtracks over (disjunct, Allen-pair) choices for every constrained edge,
// refines both axis interval networks to atomic scenarios, realises concrete
// coordinates, and checks blob-placement feasibility for every primary
// variable on the refined grid of its references.
func (n *Network) Solve(opts SolveOptions) (*Witness, error) {
	return n.SolveCtx(context.Background(), opts)
}

// SolveCtx is Solve honoring a context: the backtracking search checks for
// cancellation at every edge assignment and axis-scenario enumeration step,
// returning the context's error (matched with errors.Is) when the deadline
// passes or the caller cancels — the hook that lets a server bound the
// worst-case exponential search by wall clock as well as by scenario count.
func (n *Network) SolveCtx(ctx context.Context, opts SolveOptions) (*Witness, error) {
	opts.Workers = 1
	w, _, _, err := n.solveParallel(ctx, opts)
	return w, err
}

// prepare validates the trivial outcomes shared by every solve entry point
// (sequential, parallel, fast path) and returns the non-self constrained
// edges in lexicographic order. done=true means the outcome is decided
// without search: w non-nil for the empty network, nil for networks with an
// empty constraint or a self constraint excluding B (a R a holds iff B ∈ R).
func (n *Network) prepare() (edges [][2]int, w *Witness, done bool) {
	if len(n.names) == 0 {
		return nil, &Witness{Regions: map[string]geom.Region{}}, true
	}
	for key, rs := range n.cons {
		if key[0] == key[1] && !rs.Contains(core.B) {
			return nil, nil, true
		}
		if rs.IsEmpty() {
			return nil, nil, true
		}
	}
	edges = make([][2]int, 0, len(n.cons))
	for key := range n.cons {
		if key[0] != key[1] {
			edges = append(edges, key)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges, nil, false
}

// edgeChoice records the decisions for one constrained edge.
type edgeChoice struct {
	rel    core.Relation
	ax, ay AllenRel
}

type solver struct {
	n      *Network
	ctx    context.Context
	edges  [][2]int
	chosen map[[2]int]edgeChoice
	budget *scenarioBudget
}

// assignEdges backtracks over the constrained edges; mx and my are the
// current axis networks (nil entries mean unconstrained).
func (s *solver) assignEdges(i int, mx, my *axisNet) (*Witness, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.budget.spent() {
		return nil, ErrSearchLimit
	}
	if i == len(s.edges) {
		return s.solveScenarios(mx, my)
	}
	key := s.edges[i]
	a, b := key[0], key[1]
	for _, r := range s.n.cons[key].Relations() {
		for _, pair := range PairsOf(r) {
			ax, ay := pair[0], pair[1]
			// The axis networks must still permit this choice.
			if !mx.Get(a, b).Has(ax) || !my.Get(a, b).Has(ay) {
				continue
			}
			mx2 := mx.Clone()
			my2 := my.Clone()
			mx2.Set(a, b, AllenOf(ax))
			my2.Set(a, b, AllenOf(ay))
			if !mx2.Propagate() || !my2.Propagate() {
				continue
			}
			s.chosen[key] = edgeChoice{rel: r, ax: ax, ay: ay}
			w, err := s.assignEdges(i+1, mx2, my2)
			if err != nil {
				return nil, err
			}
			if w != nil {
				return w, nil
			}
			delete(s.chosen, key)
		}
	}
	return nil, nil
}

// solveScenarios refines both axis networks to atomic scenarios and runs the
// occupancy check for each combination until one realises.
func (s *solver) solveScenarios(mx, my *axisNet) (*Witness, error) {
	var werr error
	var witness *Witness
	err := scenarios(mx, s.budget, func(sx *axisNet) bool {
		if e := s.ctx.Err(); e != nil {
			werr = e
			return true
		}
		e := scenarios(my, s.budget, func(sy *axisNet) bool {
			if ce := s.ctx.Err(); ce != nil {
				werr = ce
				return true
			}
			xs := realize(sx)
			ys := realize(sy)
			if w := s.checkOccupancy(xs, ys); w != nil {
				witness = w
				return true
			}
			return false
		})
		if e != nil {
			werr = e
			return true
		}
		return witness != nil
	})
	if err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return nil, werr
	}
	return witness, nil
}

// checkOccupancy validates blob placement for every variable that appears as
// a primary region, and on success builds the witness regions.
func (s *solver) checkOccupancy(xs, ys []interval) *Witness {
	nv := len(s.n.names)
	regions := make(map[string]geom.Region, nv)
	// Group constraints by primary variable.
	byPrimary := make([][]primaryRef, nv)
	for key, ch := range s.chosen {
		byPrimary[key[0]] = append(byPrimary[key[0]], primaryRef{w: key[1], rel: ch.rel})
	}
	for v := 0; v < nv; v++ {
		mbb := geom.Rect{MinX: xs[v].lo, MinY: ys[v].lo, MaxX: xs[v].hi, MaxY: ys[v].hi}
		refs := byPrimary[v]
		if len(refs) == 0 {
			// Unconstrained as primary: one box spanning the mbb.
			regions[s.n.names[v]] = geom.Rgn(rectPoly(mbb))
			continue
		}
		// Refined grid: cuts at the mbb lines of every reference, clipped
		// to mbb(v).
		xcuts := cutsWithin(mbb.MinX, mbb.MaxX, refs, xs)
		ycuts := cutsWithin(mbb.MinY, mbb.MaxY, refs, ys)
		type cell struct {
			box geom.Rect
		}
		var allowed []cell
		// Requirements: per (reference, tile) coverage, plus the four mbb
		// sides of v.
		type need struct {
			w    int
			tile core.Tile
		}
		needs := map[need]bool{}
		for _, rf := range refs {
			for _, t := range rf.rel.Tiles() {
				needs[need{rf.w, t}] = false
			}
		}
		sideL, sideR, sideB, sideT := false, false, false, false
		for ix := 0; ix+1 < len(xcuts); ix++ {
			for iy := 0; iy+1 < len(ycuts); iy++ {
				c := geom.Rect{MinX: xcuts[ix], MinY: ycuts[iy], MaxX: xcuts[ix+1], MaxY: ycuts[iy+1]}
				if c.Width() <= 0 || c.Height() <= 0 {
					continue
				}
				ok := true
				center := c.Center()
				for _, rf := range refs {
					g := core.Grid{M1: xs[rf.w].lo, M2: xs[rf.w].hi, L1: ys[rf.w].lo, L2: ys[rf.w].hi}
					if !rf.rel.Has(g.ClassifyPoint(center)) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				allowed = append(allowed, cell{box: c})
				for _, rf := range refs {
					g := core.Grid{M1: xs[rf.w].lo, M2: xs[rf.w].hi, L1: ys[rf.w].lo, L2: ys[rf.w].hi}
					needs[need{rf.w, g.ClassifyPoint(center)}] = true
				}
				if c.MinX == mbb.MinX {
					sideL = true
				}
				if c.MaxX == mbb.MaxX {
					sideR = true
				}
				if c.MinY == mbb.MinY {
					sideB = true
				}
				if c.MaxY == mbb.MaxY {
					sideT = true
				}
			}
		}
		if !sideL || !sideR || !sideB || !sideT {
			return nil
		}
		for _, covered := range needs {
			if !covered {
				return nil
			}
		}
		// Build the witness region: one blob per allowed cell keeps every
		// requirement satisfied and the mbb exact. Blobs span their whole
		// cell, so adjacent cells share boundaries only.
		region := make(geom.Region, 0, len(allowed))
		for _, c := range allowed {
			region = append(region, rectPoly(c.box))
		}
		regions[s.n.names[v]] = region
	}
	return &Witness{Regions: regions}
}

// primaryRef is one constraint seen from its primary variable: the reference
// variable index and the chosen definite relation.
type primaryRef struct {
	w   int
	rel core.Relation
}

// cutsWithin returns the sorted unique cut coordinates within [lo, hi]:
// the interval bounds plus every reference's endpoints that fall strictly
// inside.
func cutsWithin(lo, hi float64, refs []primaryRef, axis []interval) []float64 {
	cuts := []float64{lo, hi}
	for _, rf := range refs {
		for _, c := range []float64{axis[rf.w].lo, axis[rf.w].hi} {
			if c > lo && c < hi {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Float64s(cuts)
	out := cuts[:1]
	for _, c := range cuts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// rectPoly converts a rectangle to a clockwise polygon.
func rectPoly(r geom.Rect) geom.Polygon { return geom.Polygon(r.Vertices()) }
