package index

import (
	"context"
	"fmt"
	"sort"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// SelectStats reports the work one directional selection performed; the
// tests and the E19 experiment use it to verify the R-tree actually prunes
// (Candidates < Total on bounded constraints) without changing results.
type SelectStats struct {
	Total      int  // items in the index
	Candidates int  // distinct items visited after the window queries
	MBBMatched int  // candidates surviving MBB-level refinement
	Exact      int  // exact Compute-CDR refinements performed
	Matched    int  // final result size
	FullScan   bool // constraint tiles cover the plane — window pruning impossible
}

// DirectionalSelect finds the regions whose cardinal direction relation to
// the reference region is a member of the allowed set, using a three-stage
// plan a spatial database would use:
//
//  1. one R-tree traversal pruned by the windows of the tiles mentioned by
//     any allowed relation ("north of b" → the half-plane strip above
//     mbb(b)); a matching region lies inside the union of its relation's
//     tiles, so its bounding box must intersect at least one window. Only
//     when the allowed tiles cover the whole plane does the plan fall back
//     to a full scan.
//  2. MBB refinement — the bounding-box relation over-approximates the
//     exact relation (exact tiles ⊆ MBB tiles), so a candidate survives
//     only when some allowed relation is a subset of its MBB relation;
//  3. exact refinement — Compute-CDR on the survivors through the
//     prepared-region engine.
//
// regions supplies the exact geometry by item id. Results are sorted ids.
// Every stage is sound (no false dismissals); the tests check equivalence
// with the naive scan.
func DirectionalSelect(
	tree *RTree,
	regions map[string]geom.Region,
	reference geom.Region,
	allowed core.RelationSet,
) ([]string, error) {
	out, _, err := DirectionalSelectStats(tree, regions, reference, allowed)
	return out, err
}

// DirectionalSelectStats is DirectionalSelect with instrumentation.
func DirectionalSelectStats(
	tree *RTree,
	regions map[string]geom.Region,
	reference geom.Region,
	allowed core.RelationSet,
) ([]string, SelectStats, error) {
	return DirectionalSelectStatsCtx(context.Background(), tree, regions, reference, allowed)
}

// DirectionalSelectStatsCtx is DirectionalSelectStats honoring a context:
// cancellation is observed once per candidate refinement (the expensive
// stage) and the context's error is returned verbatim for errors.Is.
func DirectionalSelectStatsCtx(
	ctx context.Context,
	tree *RTree,
	regions map[string]geom.Region,
	reference geom.Region,
	allowed core.RelationSet,
) ([]string, SelectStats, error) {
	return directionalSelect(ctx, tree, func(id string) (*core.Prepared, error) {
		g, ok := regions[id]
		if !ok {
			return nil, fmt.Errorf("index: no geometry for indexed id %q", id)
		}
		p, err := core.Prepare(id, g)
		if err != nil {
			return nil, fmt.Errorf("index: refining %q: %w", id, err)
		}
		return p, nil
	}, reference, allowed)
}

// directionalSelect is the selection plan proper, run as one traversal of
// the tree. prepare supplies the Prepared form of a survivor of MBB
// refinement whose leaf item does not carry one (Live's items do).
func directionalSelect(
	ctx context.Context,
	tree *RTree,
	prepare func(id string) (*core.Prepared, error),
	reference geom.Region,
	allowed core.RelationSet,
) ([]string, SelectStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := selection{ctx: ctx, allowed: allowed, prepare: prepare}
	if err := s.run(tree, reference); err != nil {
		return nil, s.st, err
	}
	sort.Strings(s.out)
	s.st.Matched = len(s.out)
	return s.out, s.st, nil
}

// selection is the state of one directional selection: the reference grid,
// the allowed relations in the two forms the stages test against, and the
// results so far.
type selection struct {
	ctx     context.Context
	grid    core.Grid
	allowed core.RelationSet
	rels    []core.Relation // allowed, materialised once
	// rowCols[r] has bit c set when some allowed relation mentions the tile
	// in column c of row r: the union of the constraint tiles' windows.
	rowCols [3]uint8
	prepare func(id string) (*core.Prepared, error)
	st      SelectStats
	out     []string
}

// run executes the plan against the tree.
func (s *selection) run(tree *RTree, reference geom.Region) error {
	s.st.Total = tree.Len()
	if err := s.plan(reference); err != nil {
		return err
	}
	return s.walk(tree.root)
}

// plan derives what the stages test against from the reference and the
// allowed set. Stage 1 is the traversal itself: a matching region lies
// inside the union of its relation's tiles, so its bounding box — and every
// node box above it — must meet the union of the constraint tiles' windows
// ("north of b" → the strip above mbb(b)). When the tiles cover all nine
// cells the union is the whole plane, no subtree can be dismissed, and
// FullScan is recorded.
func (s *selection) plan(reference geom.Region) error {
	if s.allowed.IsEmpty() {
		return fmt.Errorf("index: empty allowed relation set")
	}
	var err error
	if s.grid, err = core.NewGrid(reference.BoundingBox()); err != nil {
		return err
	}
	s.rels = s.allowed.Relations()
	var tiles core.Relation
	for _, r := range s.rels {
		tiles = tiles.Union(r)
	}
	for _, t := range tiles.Tiles() {
		s.rowCols[t.Row()] |= 1 << t.Col()
	}
	s.st.FullScan = tiles == core.RelationMask
	return nil
}

// axisBits packs which of the three grid intervals (−∞,g1], [g1,g2], [g2,+∞)
// the interval [lo,hi] meets (closed) or overlaps with positive length
// (strict) into bits 0–2.
func axisBits(lo, hi, g1, g2 float64, strict bool) uint8 {
	if strict {
		return b2u(lo < g1) | b2u(lo < g2 && hi > g1)<<1 | b2u(hi > g2)<<2
	}
	return b2u(lo <= g1) | b2u(lo <= g2 && hi >= g1)<<1 | b2u(hi >= g2)<<2
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// meets reports whether a box intersects the window of any constraint tile
// — what one R-tree window query per tile would test, in one pass.
func (s *selection) meets(b geom.Rect) bool {
	cols := axisBits(b.MinX, b.MaxX, s.grid.M1, s.grid.M2, false)
	rows := axisBits(b.MinY, b.MaxY, s.grid.L1, s.grid.L2, false)
	for r, rc := range s.rowCols {
		if rows>>r&1 != 0 && cols&rc != 0 {
			return true
		}
	}
	return false
}

func (s *selection) walk(n *node) error {
	if !s.meets(n.box) {
		return nil
	}
	for _, c := range n.children {
		if err := s.walk(c); err != nil {
			return err
		}
	}
	for i := range n.items {
		if it := &n.items[i]; s.meets(it.Box) {
			if err := s.refine(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// refine takes one candidate through stages 2 and 3.
func (s *selection) refine(it *Item) error {
	s.st.Candidates++
	if err := s.ctx.Err(); err != nil {
		return err
	}
	// Stage 2: MBB-level pruning. The bounding-box relation
	// over-approximates the exact relation (exact tiles ⊆ MBB tiles), so a
	// candidate survives only when some allowed relation fits inside it.
	mbbRel := mbbRelation(s.grid, it.Box)
	possible := false
	for _, r := range s.rels {
		if r.Intersect(mbbRel) == r {
			possible = true
			break
		}
	}
	if !possible {
		return nil
	}
	s.st.MBBMatched++
	// Stage 3: exact refinement through the prepared-region engine — the
	// reference grid is reused across survivors and box-separable survivors
	// take the MBB fast path.
	p := it.Prepared
	if p == nil {
		var err error
		if p, err = s.prepare(it.ID); err != nil {
			return err
		}
	}
	s.st.Exact++
	if s.allowed.Contains(p.RelateGrid(s.grid, nil)) {
		s.out = append(s.out, it.ID)
	}
	return nil
}

// tileBlocks maps the column and row bits of axisBits to the relation made
// of every tile in those columns and rows.
var tileBlocks = func() (tb [8][8]core.Relation) {
	for cols := range tb {
		for rows := range tb[cols] {
			for _, t := range core.Tiles() {
				if cols>>t.Col()&1 != 0 && rows>>t.Row()&1 != 0 {
					tb[cols][rows] = tb[cols][rows].With(t)
				}
			}
		}
	}
	return tb
}()

// mbbRelation computes the tile relation of a bounding box against the
// grid: the tiles the box overlaps with positive area, from eight
// comparisons. It equals the exact relation of the box viewed as a region,
// and over-approximates the exact relation of anything inside the box.
func mbbRelation(g core.Grid, box geom.Rect) core.Relation {
	return tileBlocks[axisBits(box.MinX, box.MaxX, g.M1, g.M2, true)][axisBits(box.MinY, box.MaxY, g.L1, g.L2, true)]
}
