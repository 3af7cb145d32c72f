package index

import (
	"context"
	"fmt"
	"math"
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
//  1. R-tree window queries — one per tile mentioned by any allowed
//     relation ("north of b" → the half-plane strip above mbb(b)); a
//     matching region lies inside the union of its relation's tiles, so its
//     bounding box must intersect at least one queried window. Only when
//     the allowed tiles cover the whole plane does the plan fall back to a
//     full scan.
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

// directionalSelect is the selection plan proper. prepared supplies the
// Prepared form of a candidate that survived MBB refinement: a lookup for
// Live, which holds them, a Prepare for the map-of-geometries entry points.
func directionalSelect(
	ctx context.Context,
	tree *RTree,
	prepared func(id string) (*core.Prepared, error),
	reference geom.Region,
	allowed core.RelationSet,
) ([]string, SelectStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st SelectStats
	st.Total = tree.Len()
	if allowed.IsEmpty() {
		return nil, st, fmt.Errorf("index: empty allowed relation set")
	}
	grid, err := core.NewGrid(reference.BoundingBox())
	if err != nil {
		return nil, st, err
	}

	// Stage 1: one window query per constraint tile, deduplicated by id.
	var tiles core.Relation
	for _, r := range allowed.Relations() {
		tiles = tiles.Union(r)
	}
	candidates := searchTiles(tree, grid, tiles, &st)
	st.Candidates = len(candidates)
	allowedRels := allowed.Relations()

	var out []string
	sc := &core.Scratch{}
	for _, it := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		// Stage 2: MBB-level pruning.
		mbbRel := mbbRelation(grid, it.Box)
		possible := false
		for _, r := range allowedRels {
			if r.Intersect(mbbRel) == r {
				possible = true
				break
			}
		}
		if !possible {
			continue
		}
		st.MBBMatched++
		// Stage 3: exact refinement through the prepared-region engine —
		// the reference grid is reused across survivors, the split buffer
		// is recycled, and box-separable survivors take the MBB fast path.
		p, err := prepared(it.ID)
		if err != nil {
			return nil, st, err
		}
		st.Exact++
		if allowed.Contains(p.RelateGrid(grid, sc)) {
			out = append(out, it.ID)
		}
	}
	sort.Strings(out)
	st.Matched = len(out)
	return out, st, nil
}

// EstimateSelect runs only the cheap stages of the directional-selection
// plan — R-tree window queries and MBB refinement, never exact geometry —
// and returns the instrumentation (Exact and Matched stay zero). The query
// planner reads MBBMatched/Total off the result as a sound upper-bound
// selectivity estimate for a pinned-reference relation condition, paying a
// few window queries instead of the selection itself.
func EstimateSelect(tree *RTree, reference geom.Region, allowed core.RelationSet) (SelectStats, error) {
	var st SelectStats
	st.Total = tree.Len()
	if allowed.IsEmpty() {
		return st, fmt.Errorf("index: empty allowed relation set")
	}
	grid, err := core.NewGrid(reference.BoundingBox())
	if err != nil {
		return st, err
	}
	var tiles core.Relation
	for _, r := range allowed.Relations() {
		tiles = tiles.Union(r)
	}
	candidates := searchTiles(tree, grid, tiles, &st)
	st.Candidates = len(candidates)
	for _, it := range candidates {
		mbbRel := mbbRelation(grid, it.Box)
		for _, r := range allowed.Relations() {
			if r.Intersect(mbbRel) == r {
				st.MBBMatched++
				break
			}
		}
	}
	return st, nil
}

// FindRelated is the index-driven counterpart of core.FindRelated: it
// bulk-loads the candidates' bounding boxes into a transient R-tree and
// answers through DirectionalSelect, so on scatter-like inputs most
// candidates are dismissed by window queries without their geometry ever
// being touched. Results are identical to core.FindRelated (sorted names);
// a candidate with no usable geometry yields a wrapped
// core.ErrDegenerateRegion like the scan path does.
func FindRelated(candidates []core.NamedRegion, reference geom.Region, allowed core.RelationSet) ([]string, error) {
	return FindRelatedCtx(context.Background(), candidates, reference, allowed)
}

// FindRelatedCtx is FindRelated honoring a context: cancellation is observed
// once per candidate refinement, like DirectionalSelectStatsCtx.
func FindRelatedCtx(ctx context.Context, candidates []core.NamedRegion, reference geom.Region, allowed core.RelationSet) ([]string, error) {
	if allowed.IsEmpty() {
		return nil, fmt.Errorf("core: empty allowed relation set")
	}
	if len(reference) == 0 {
		return nil, fmt.Errorf("core: reference region is empty")
	}
	items := make([]Item, 0, len(candidates))
	regions := make(map[string]geom.Region, len(candidates))
	for _, c := range candidates {
		box := c.Region.BoundingBox()
		if box.IsEmpty() {
			// Preserve the scan path's contract: degenerate candidates are
			// an error, not a silent non-match. Prepare produces the
			// canonical wrapped sentinel.
			if _, err := core.Prepare(c.Name, c.Region); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: region %q has empty bounding box: %w", c.Name, core.ErrDegenerateRegion)
		}
		items = append(items, Item{Box: box, ID: c.Name})
		regions[c.Name] = c.Region
	}
	tree, err := BulkLoad(items)
	if err != nil {
		return nil, err
	}
	return DirectionalSelect(tree, regions, reference, allowed)
}

// searchTiles runs one R-tree window query per constraint tile,
// deduplicating items that fall in several windows (windows of adjacent
// tiles share their boundary lines). When the tiles cover all nine cells
// the union is the whole plane — no window can dismiss anything — so a
// single full traversal is used instead and FullScan is recorded.
func searchTiles(tree *RTree, g core.Grid, tiles core.Relation, st *SelectStats) []Item {
	if tiles == core.RelationMask {
		st.FullScan = true
		everything := geom.Rect{
			MinX: math.Inf(-1), MinY: math.Inf(-1),
			MaxX: math.Inf(1), MaxY: math.Inf(1),
		}
		return tree.Search(everything, nil)
	}
	var out []Item
	seen := make(map[string]bool)
	for _, t := range tiles.Tiles() {
		for _, it := range tree.Search(tileRect(g, t), nil) {
			if !seen[it.ID] {
				seen[it.ID] = true
				out = append(out, it)
			}
		}
	}
	return out
}

// tileRect returns a tile's extent, with ±Inf for unbounded sides.
func tileRect(g core.Grid, t core.Tile) geom.Rect {
	r := geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	switch t.Col() {
	case 0:
		r.MaxX = g.M1
	case 1:
		r.MinX, r.MaxX = g.M1, g.M2
	case 2:
		r.MinX = g.M2
	}
	switch t.Row() {
	case 0:
		r.MaxY = g.L1
	case 1:
		r.MinY, r.MaxY = g.L1, g.L2
	case 2:
		r.MinY = g.L2
	}
	return r
}

// mbbRelation computes the tile relation of a bounding box against the
// grid: the tiles the box overlaps with positive area. It equals the exact
// relation of the box viewed as a region, and over-approximates the exact
// relation of anything inside the box.
func mbbRelation(g core.Grid, box geom.Rect) core.Relation {
	var rel core.Relation
	for _, t := range core.Tiles() {
		tr := tileRect(g, t)
		if math.Min(tr.MaxX, box.MaxX) > math.Max(tr.MinX, box.MinX) &&
			math.Min(tr.MaxY, box.MaxY) > math.Max(tr.MinY, box.MinY) {
			rel = rel.With(t)
		}
	}
	return rel
}
