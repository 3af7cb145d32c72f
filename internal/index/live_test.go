package index

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// TestRTreeDeleteRandomized drives a tree through a long seeded
// insert/delete sequence, validating the structural invariants and search
// equivalence against a shadow map after every operation.
func TestRTreeDeleteRandomized(t *testing.T) {
	for _, seed := range []int64{1, 42, 20040314} {
		rng := rand.New(rand.NewSource(seed))
		tree := New()
		shadow := map[string]geom.Rect{}
		nextID := 0
		ops := 600
		if testing.Short() {
			ops = 150
		}
		randBox := func() geom.Rect {
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			return geom.Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*20, MaxY: y + 1 + rng.Float64()*20}
		}
		for op := 0; op < ops; op++ {
			if rng.Intn(3) > 0 || len(shadow) == 0 { // bias towards inserts
				id := fmt.Sprintf("i%04d", nextID)
				nextID++
				box := randBox()
				if err := tree.Insert(Item{ID: id, Box: box}); err != nil {
					t.Fatal(err)
				}
				shadow[id] = box
			} else {
				// Delete a pseudo-random existing id.
				ids := make([]string, 0, len(shadow))
				for id := range shadow {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				id := ids[rng.Intn(len(ids))]
				if !tree.Delete(Item{ID: id, Box: shadow[id]}) {
					t.Fatalf("seed %d op %d: Delete(%s) not found", seed, op, id)
				}
				delete(shadow, id)
			}
			if tree.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len = %d, shadow = %d", seed, op, tree.Len(), len(shadow))
			}
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			// Search equivalence on a random window.
			window := randBox()
			var got []string
			for _, it := range tree.Search(window, nil) {
				got = append(got, it.ID)
			}
			sort.Strings(got)
			var want []string
			for id, box := range shadow {
				if box.Intersects(window) {
					want = append(want, id)
				}
			}
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: search mismatch\n got %v\nwant %v", seed, op, got, want)
			}
		}
		// Drain to empty: the tree must survive total deletion.
		for id, box := range shadow {
			if !tree.Delete(Item{ID: id, Box: box}) {
				t.Fatalf("drain: Delete(%s) not found", id)
			}
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		if tree.Len() != 0 || len(tree.Search(geom.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, nil)) != 0 {
			t.Fatal("tree not empty after draining")
		}
		// And remain usable afterwards.
		if err := tree.Insert(Item{ID: "again", Box: randBox()}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRTreeDeleteMisses: deleting absent items (wrong id, wrong box, empty
// box) leaves the tree untouched.
func TestRTreeDeleteMisses(t *testing.T) {
	tree := New()
	box := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if err := tree.Insert(Item{ID: "a", Box: box}); err != nil {
		t.Fatal(err)
	}
	if tree.Delete(Item{ID: "b", Box: box}) {
		t.Error("deleted wrong id")
	}
	if tree.Delete(Item{ID: "a", Box: geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}}) {
		t.Error("deleted wrong box")
	}
	if tree.Delete(Item{ID: "a", Box: geom.EmptyRect()}) {
		t.Error("deleted empty box")
	}
	if tree.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tree.Len())
	}
}

// liveWorkload builds named regions for Live tests.
func liveWorkload(seed int64, n int) []core.NamedRegion {
	g := workload.New(seed)
	out := make([]core.NamedRegion, n)
	for i, r := range g.Scatter(n, 8) {
		out[i] = core.NamedRegion{Name: fmt.Sprintf("r%03d", i), Region: r}
	}
	return out
}

// TestLiveMatchesBulkLoad drives a Live index through a seeded edit
// sequence and asserts, after every edit, that directional selection over
// the maintained tree equals selection over a freshly bulk-loaded one —
// and that the R-tree invariants hold throughout.
func TestLiveMatchesBulkLoad(t *testing.T) {
	regions := liveWorkload(20040314, 40)
	l, err := NewLive(regions)
	if err != nil {
		t.Fatal(err)
	}
	world := append([]core.NamedRegion(nil), regions...)
	spare := workload.New(99).Scatter(32, 8)
	rng := rand.New(rand.NewSource(5))
	ref := geom.Rgn(workload.Box(40, 40, 80, 80))
	allowed := core.NewRelationSet(core.N, core.NE, core.E, core.Rel(core.TileN, core.TileNE))

	check := func(op int) {
		t.Helper()
		if err := l.tree.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		got, err := l.Select(ref, allowed)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		fresh, err := NewLive(world)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		want, err := fresh.Select(ref, allowed)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: live select %v != bulk select %v", op, got, want)
		}
	}
	check(-1)

	nextID := 1000
	for op := 0; op < 30; op++ {
		switch k := rng.Intn(4); {
		case k == 0 || len(world) < 3: // add
			id := fmt.Sprintf("r%04d", nextID)
			nextID++
			g := spare[rng.Intn(len(spare))]
			if err := l.Add(id, g); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			world = append(world, core.NamedRegion{Name: id, Region: g})
		case k == 1: // remove
			i := rng.Intn(len(world))
			if err := l.Remove(world[i].Name); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			world = append(world[:i], world[i+1:]...)
		case k == 2: // set geometry
			i := rng.Intn(len(world))
			g := spare[rng.Intn(len(spare))]
			if err := l.SetGeometry(world[i].Name, g); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			world[i].Region = g
		default: // rename
			i := rng.Intn(len(world))
			id := fmt.Sprintf("r%04d", nextID)
			nextID++
			if err := l.Rename(world[i].Name, id); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			world[i].Name = id
		}
		check(op)
	}
}

// TestLiveErrors covers the Live error surface.
func TestLiveErrors(t *testing.T) {
	l, err := NewLive(liveWorkload(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	box := geom.Rgn(workload.Box(0, 0, 4, 4))
	if err := l.Add("r000", box); err == nil {
		t.Error("duplicate Add should fail")
	}
	if err := l.Add("", box); err == nil {
		t.Error("empty-id Add should fail")
	}
	if err := l.Add("flat", geom.Region{}); err == nil {
		t.Error("empty-box Add should fail")
	}
	if err := l.Remove("ghost"); err == nil {
		t.Error("Remove of unknown id should fail")
	}
	if err := l.Rename("ghost", "x"); err == nil {
		t.Error("Rename of unknown id should fail")
	}
	if err := l.Rename("r000", "r001"); err == nil {
		t.Error("Rename onto existing id should fail")
	}
	if err := l.Rename("r000", "r000"); err != nil {
		t.Errorf("self-rename should be a no-op: %v", err)
	}
	if err := l.SetGeometry("ghost", box); err == nil {
		t.Error("SetGeometry of unknown id should fail")
	}
	if err := l.SetGeometry("r000", geom.Region{}); err == nil {
		t.Error("empty-box SetGeometry should fail")
	}
	if l.Len() != 5 {
		t.Fatalf("failed edits changed Len: %d", l.Len())
	}
	// Duplicate ids at construction.
	if _, err := NewLive([]core.NamedRegion{
		{Name: "a", Region: box}, {Name: "a", Region: box},
	}); err == nil {
		t.Error("duplicate construction ids should fail")
	}
}

// TestLiveSelectPreparesNothing: a selection over the live index refines
// its survivors with the Prepared forms the index already holds. It must
// return the ids and the SelectStats of the plan that prepares every
// survivor from its geometry (DirectionalSelectStats over a tree of the
// same boxes whose items carry no Prepared), and allocate at least one
// object less per exact refinement than that plan does — a Prepare
// allocates, reading the leaf item does not.
func TestLiveSelectPreparesNothing(t *testing.T) {
	regions := liveWorkload(7, 200)
	geoms := make(map[string]geom.Region, len(regions))
	for _, r := range regions {
		geoms[r.Name] = r.Region
	}
	l, err := NewLive(regions)
	if err != nil {
		t.Fatal(err)
	}
	// Edits keep the held forms current.
	moved := workload.New(8).Scatter(3, 8)
	for i, g := range moved {
		id := regions[i*17].Name
		if err := l.SetGeometry(id, g); err != nil {
			t.Fatal(err)
		}
		geoms[id] = g
	}
	ref := geom.Rgn(workload.Box(40, 40, 80, 80))
	allowed := core.NewRelationSet(core.N, core.NE, core.E, core.Rel(core.TileN, core.TileNE))

	var bare []Item
	for id, g := range geoms {
		bare = append(bare, Item{ID: id, Box: g.BoundingBox()})
	}
	plain, err := BulkLoad(bare)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, wantSt, err := DirectionalSelectStats(plain, geoms, ref, allowed)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotSt, err := l.SelectStats(ref, allowed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) || gotSt != wantSt {
		t.Fatalf("live select %v %+v, preparing select %v %+v", gotIDs, gotSt, wantIDs, wantSt)
	}
	if wantSt.Exact == 0 {
		t.Fatal("no candidate reached exact refinement; the test is vacuous")
	}
	live := testing.AllocsPerRun(10, func() { _, _, _ = l.SelectStats(ref, allowed) })
	preparing := testing.AllocsPerRun(10, func() { _, _, _ = DirectionalSelectStats(plain, geoms, ref, allowed) })
	if live > preparing-float64(wantSt.Exact) {
		t.Errorf("live select allocates %v objects, the preparing plan %v for %d refinements: the index still prepares",
			live, preparing, wantSt.Exact)
	}
}

// BenchmarkLiveSelect is one /v1/select of the read-mix benchmark world,
// in-process: a Cluster(800, 100, 16) world, the reference cycling through
// its regions and the allowed set through the eight sets bench/ops.go asks
// for.
func BenchmarkLiveSelect(b *testing.B) {
	var regions []core.NamedRegion
	for i, r := range workload.New(1).Cluster(800, 100, 16) {
		regions = append(regions, core.NamedRegion{Name: fmt.Sprintf("r%04d", i), Region: r})
	}
	l, err := NewLive(regions)
	if err != nil {
		b.Fatal(err)
	}
	var sets []core.RelationSet
	for _, s := range []string{
		"{N, NW:N, N:NE}", "{S, S:SW, S:SE}", "{E, NE:E, E:SE}", "{W, W:NW, SW:W}",
		"{NE}", "{SW}", "{N, NE, NW}", "{B:N, B:S, B:E, B:W}",
	} {
		rs, err := core.ParseRelationSet(s)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, rs)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := l.SelectStatsCtx(ctx, regions[i*7%len(regions)].Region, sets[i%len(sets)])
		if err != nil {
			b.Fatal(err)
		}
		selectSink = ids
	}
}

var selectSink []string
