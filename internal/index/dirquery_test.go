package index

import (
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// buildWorld indexes n random star regions and returns the tree, the
// geometry map and a reference region in the middle of the field.
func buildWorld(t testing.TB, n int, seed int64) (*RTree, map[string]geom.Region, geom.Region) {
	t.Helper()
	g := workload.New(seed)
	regions := map[string]geom.Region{}
	items := make([]Item, 0, n)
	side := 1
	for side*side < n {
		side++
	}
	for i := 0; i < n; i++ {
		cx := float64(i%side) * 12
		cy := float64(i/side) * 12
		r := geom.Rgn(g.StarPolygon(cx, cy, 1, 4, 8))
		id := fmt.Sprintf("r%04d", i)
		regions[id] = r
		items = append(items, Item{Box: r.BoundingBox(), ID: id})
	}
	tree, err := BulkLoad(items)
	if err != nil {
		t.Fatal(err)
	}
	mid := float64(side) * 12 / 2
	ref := workload.BoxRegion(mid-4, mid-4, mid+4, mid+4)
	return tree, regions, ref
}

// naiveSelect is the reference implementation: relation per candidate.
func naiveSelect(t testing.TB, regions map[string]geom.Region, ref geom.Region, allowed core.RelationSet) []string {
	t.Helper()
	var out []string
	for id, g := range regions {
		rel, err := core.ComputeCDR(g, ref)
		if err != nil {
			t.Fatal(err)
		}
		if allowed.Contains(rel) {
			out = append(out, id)
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestDirectionalSelectMatchesNaive(t *testing.T) {
	tree, regions, ref := buildWorld(t, 100, 3)
	sets := []core.RelationSet{
		core.NewRelationSet(core.SW),
		core.NewRelationSet(core.N, core.NE, core.Rel(core.TileN, core.TileNE)),
		core.NewRelationSet(core.B),
		func() core.RelationSet { // everything with any north component
			var s core.RelationSet
			for _, r := range core.AllRelations() {
				if r.Has(core.TileN) || r.Has(core.TileNE) || r.Has(core.TileNW) {
					s.Add(r)
				}
			}
			return s
		}(),
	}
	for i, allowed := range sets {
		want := naiveSelect(t, regions, ref, allowed)
		got, err := DirectionalSelect(tree, regions, ref, allowed)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("set %d: %d hits, want %d (%v vs %v)", i, len(got), len(want), got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("set %d: mismatch at %d: %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestDirectionalSelectErrors(t *testing.T) {
	tree, regions, ref := buildWorld(t, 10, 5)
	if _, err := DirectionalSelect(tree, regions, ref, core.RelationSet{}); err == nil {
		t.Error("empty allowed set should fail")
	}
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if _, err := DirectionalSelect(tree, regions, line, core.NewRelationSet(core.N)); err == nil {
		t.Error("degenerate reference should fail")
	}
	// Missing geometry for an indexed id: the ghost's box sits inside the
	// reference's bounding box so it survives the MBB stages and forces the
	// geometry lookup.
	bad := newTree(t)
	refBox := ref.BoundingBox()
	c := refBox.Center()
	bad.Insert(Item{Box: geom.Rect{MinX: c.X - 0.5, MinY: c.Y - 0.5, MaxX: c.X + 0.5, MaxY: c.Y + 0.5}, ID: "ghost"})
	if _, err := DirectionalSelect(bad, map[string]geom.Region{}, ref, core.NewRelationSet(core.B)); err == nil {
		t.Error("missing geometry should fail")
	}
}

func TestMBBRelationAgainstCore(t *testing.T) {
	ref := workload.BoxRegion(0, 0, 10, 6)
	grid, err := core.NewGrid(ref.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(17)
	for trial := 0; trial < 200; trial++ {
		r := geom.Rgn(g.StarPolygon(float64(trial%20)-5, float64(trial%13)-4, 0.5, 3, 7))
		mbbRel := mbbRelation(grid, r.BoundingBox())
		exact, err := core.ComputeCDR(r, ref)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Intersect(mbbRel) != exact {
			t.Fatalf("trial %d: exact %v ⊄ mbb %v", trial, exact, mbbRel)
		}
	}
}

func TestTileWindowsCoverMatches(t *testing.T) {
	ref := workload.BoxRegion(0, 0, 10, 6)
	sel := selection{allowed: core.NewRelationSet(core.SW, core.Rel(core.TileS, core.TileSW))}
	if err := sel.plan(ref); err != nil {
		t.Fatal(err)
	}
	anyWindowHits := sel.meets
	// Some window must contain any box realising an allowed relation.
	sw := workload.BoxRegion(-5, -5, -1, -1)
	if !anyWindowHits(sw.BoundingBox()) {
		t.Error("tile windows miss a SW match")
	}
	// And all must exclude far-north boxes when no allowed relation has a
	// north tile.
	n := workload.BoxRegion(2, 100, 4, 102)
	if anyWindowHits(n.BoundingBox()) {
		t.Error("tile windows wrongly cover the north")
	}
	// Per-tile windows are tighter than the bounding box of their union:
	// {SW, S:SW} leaves the east side untouched even though a single
	// united window would span it.
	e := workload.BoxRegion(100, 2, 102, 4)
	if anyWindowHits(e.BoundingBox()) {
		t.Error("tile windows wrongly cover the east")
	}
}

// TestDirectionalSelectStatsPrunes asserts the acceptance property of the
// indexed plan: on a scatter world with a bounded constraint it visits
// strictly fewer candidates than the index holds, with results identical to
// the naive scan; a constraint covering all nine tiles degrades to an
// explicit full scan, still with identical results.
func TestDirectionalSelectStatsPrunes(t *testing.T) {
	tree, regions, ref := buildWorld(t, 200, 7)
	allowed := core.NewRelationSet(core.N, core.Rel(core.TileN, core.TileNE))
	got, st, err := DirectionalSelectStats(tree, regions, ref, allowed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 200 {
		t.Fatalf("Total = %d, want 200", st.Total)
	}
	if st.Candidates >= st.Total {
		t.Errorf("window queries visited %d of %d candidates — no pruning", st.Candidates, st.Total)
	}
	if st.FullScan {
		t.Error("bounded constraint should not fall back to a full scan")
	}
	if st.MBBMatched > st.Candidates || st.Exact != st.MBBMatched || st.Matched != len(got) {
		t.Errorf("inconsistent stats: %+v with %d results", st, len(got))
	}
	want := naiveSelect(t, regions, ref, allowed)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pruned results diverge: %v vs %v", got, want)
	}

	// All nine tiles → the window is the plane → full scan fallback.
	everything := core.NewRelationSet(core.RelationMask)
	got, st, err = DirectionalSelectStats(tree, regions, ref, everything)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullScan {
		t.Error("nine-tile constraint should report FullScan")
	}
	if st.Candidates != st.Total {
		t.Errorf("full scan visited %d of %d", st.Candidates, st.Total)
	}
	want = naiveSelect(t, regions, ref, everything)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("full-scan results diverge: %v vs %v", got, want)
	}
}

func BenchmarkDirectionalSelect(b *testing.B) {
	tree, regions, ref := buildWorld(b, 2500, 11)
	allowed := core.NewRelationSet(core.SW, core.Rel(core.TileS, core.TileSW))
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DirectionalSelect(tree, regions, ref, allowed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range regions {
				rel, err := core.ComputeCDR(g, ref)
				if err != nil {
					b.Fatal(err)
				}
				_ = allowed.Contains(rel)
			}
		}
	})
}

// TestDirectionalSelectRandomSetsProperty: for random allowed sets the
// indexed plan agrees with the naive scan.
func TestDirectionalSelectRandomSetsProperty(t *testing.T) {
	tree, regions, ref := buildWorld(t, 60, 21)
	rels := core.AllRelations()
	rng := func(seed, n int) int { return (seed*2654435761 + n) % len(rels) }
	for trial := 0; trial < 25; trial++ {
		var allowed core.RelationSet
		for k := 0; k < 1+trial%7; k++ {
			allowed.Add(rels[rng(trial, k*13+7)])
		}
		want := naiveSelect(t, regions, ref, allowed)
		got, err := DirectionalSelect(tree, regions, ref, allowed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d (%v vs %v)", trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch %v vs %v", trial, got, want)
			}
		}
	}
}

// TestDirectionalSelectLineRegion: a candidate whose bounding box has no
// width (a vertical line region) is a legitimate primary; the MBB stage
// must place it in the column it lies strictly inside and leave the verdict
// to the exact kernel, as the naive scan does, instead of dismissing it for
// overlapping no tile with positive area.
func TestDirectionalSelectLineRegion(t *testing.T) {
	tree, regions, ref := buildWorld(t, 30, 5)
	line := geom.Rgn(geom.Poly(geom.Pt(-20, 0), geom.Pt(-20, 5), geom.Pt(-20, 10)))
	regions["line"] = line
	if err := tree.Insert(Item{ID: "line", Box: line.BoundingBox()}); err != nil {
		t.Fatal(err)
	}
	allowed := core.NewRelationSet(core.SW, core.W, core.Rel(core.TileW, core.TileSW))
	got, err := DirectionalSelect(tree, regions, ref, allowed)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSelect(t, regions, ref, allowed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("select %v, naive scan %v", got, want)
	}
	found := false
	for _, id := range got {
		found = found || id == "line"
	}
	if !found {
		t.Fatalf("the line region is missing from %v", got)
	}
}
