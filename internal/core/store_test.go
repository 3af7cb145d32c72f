package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// storeWorld is the test's shadow model: the plain NamedRegion slice a
// from-scratch batch recompute would see after the same edit sequence.
type storeWorld []NamedRegion

// checkAgainstBatch asserts the store's answers — qualitative and
// quantitative — are what a from-scratch batch recompute over the current
// regions produces. This is the differential oracle of the acceptance
// criteria.
func checkAgainstBatch(t *testing.T, s *RelationStore, w storeWorld) {
	t.Helper()
	if s.Len() != len(w) {
		t.Fatalf("store holds %d regions, world has %d", s.Len(), len(w))
	}
	wantRel, _ := batchCDR(t, w, BatchOptions{Workers: 1})
	gotRel := s.Pairs()
	if len(wantRel) == 0 {
		wantRel = nil
	}
	if !reflect.DeepEqual(gotRel, wantRel) {
		t.Fatalf("store pairs diverged from batch recompute:\n got %v\nwant %v", gotRel, wantRel)
	}
	checkRows(t, s)
	wantPct, _ := batchPct(t, w, BatchOptions{Workers: 1})
	gotPct, err := s.PctPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPct) != len(wantPct) {
		t.Fatalf("store pct pairs = %d, want %d", len(gotPct), len(wantPct))
	}
	for i := range wantPct {
		g, want := gotPct[i], wantPct[i]
		if g.Primary != want.Primary || g.Reference != want.Reference {
			t.Fatalf("pct pair %d is (%s,%s), want (%s,%s)", i, g.Primary, g.Reference, want.Primary, want.Reference)
		}
		if !g.Matrix.ApproxEqual(want.Matrix, 1e-9) {
			t.Fatalf("%s vs %s: matrix diverged\n%v\nwant\n%v", g.Primary, g.Reference, g.Matrix, want.Matrix)
		}
		for tile := range want.Areas {
			if math.Abs(g.Areas[tile]-want.Areas[tile]) > 1e-9*(1+math.Abs(want.Areas[tile])) {
				t.Fatalf("%s vs %s: tile %v area %g, want %g", g.Primary, g.Reference, Tile(tile), g.Areas[tile], want.Areas[tile])
			}
		}
	}
}

// checkRows asserts the row read equals single reads: for every pin, on
// either side, over the whole world and over a subset, in sorted-name order
// (which the edits of the differential test make differ from slot order),
// RelateRow gives B for the pin itself and what Relation gives for every
// other candidate — and moves the stage counters exactly as those single
// reads do.
func checkRows(t *testing.T, s *RelationStore) {
	t.Helper()
	names := s.Names()
	all, err := s.PreparedAll(names)
	if err != nil {
		t.Fatal(err)
	}
	var subNames []string
	var sub []*Prepared
	for k := 0; k < len(names); k += 2 {
		subNames, sub = append(subNames, names[k]), append(sub, all[k])
	}
	for k, pin := range names {
		if p, ok := s.Prepared(pin); !ok || p != all[k] {
			t.Fatalf("PreparedAll[%d] is not the held form of %s", k, pin)
		}
		for _, pinnedIsRef := range []bool{true, false} {
			for _, c := range []struct {
				names []string
				row   []*Prepared
			}{{names, all}, {subNames, sub}} {
				before := s.Stats()
				got := make([]Relation, len(c.row))
				if err := s.RelateRow(context.Background(), all[k], pinnedIsRef, c.row, got); err != nil {
					t.Fatal(err)
				}
				row := s.Stats()
				for j, name := range c.names {
					want := B
					if name != pin {
						a, b := name, pin
						if !pinnedIsRef {
							a, b = pin, name
						}
						if want, err = s.Relation(a, b); err != nil {
							t.Fatal(err)
						}
					}
					if got[j] != want {
						t.Fatalf("row of %s (pinnedIsRef %v): %s is %v, single read says %v", pin, pinnedIsRef, name, got[j], want)
					}
				}
				if r, single := statsDelta(row, before), statsDelta(s.Stats(), row); r != single {
					t.Fatalf("row of %s counted %v, the same single reads %v", pin, r, single)
				}
			}
		}
	}
}

// statsDelta is the qualitative stage counters' movement between two reads.
func statsDelta(after, before StoreStats) [4]int {
	return [4]int{after.Passes - before.Passes, after.PruneSingleTile - before.PruneSingleTile,
		after.PruneBand - before.PruneBand, after.ExactPairs - before.ExactPairs}
}

// TestRelationStoreDifferential drives a store through a long seeded edit
// sequence — adds, removes, geometry changes, renames — and proves after
// every single edit that its contents equal a from-scratch batch recompute.
func TestRelationStoreDifferential(t *testing.T) {
	for _, seed := range []int64{3, 20040314} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := storeWorld(batchWorkload(seed, 15))
			s, err := NewRelationStore(w, StoreOptions{Workers: 2, Pct: true})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBatch(t, s, w)

			// A deterministic pool of spare geometries for adds and moves.
			spare := workload.New(seed+1).Scatter(64, 8)
			rng := rand.New(rand.NewSource(seed))
			nextID := 1000
			ops := 40
			if testing.Short() {
				ops = 12
			}
			for op := 0; op < ops; op++ {
				switch k := rng.Intn(4); {
				case k == 0 || len(w) < 3: // add
					name := fmt.Sprintf("r%04d", nextID)
					nextID++
					g := spare[rng.Intn(len(spare))]
					if err := s.Add(name, g); err != nil {
						t.Fatalf("op %d add %s: %v", op, name, err)
					}
					w = append(w, NamedRegion{Name: name, Region: g})
				case k == 1: // remove
					i := rng.Intn(len(w))
					if err := s.Remove(w[i].Name); err != nil {
						t.Fatalf("op %d remove %s: %v", op, w[i].Name, err)
					}
					w = append(w[:i], w[i+1:]...)
				case k == 2: // set geometry
					i := rng.Intn(len(w))
					g := spare[rng.Intn(len(spare))]
					if err := s.SetGeometry(w[i].Name, g); err != nil {
						t.Fatalf("op %d setgeom %s: %v", op, w[i].Name, err)
					}
					w[i].Region = g
				default: // rename
					i := rng.Intn(len(w))
					name := fmt.Sprintf("r%04d", nextID)
					nextID++
					if err := s.Rename(w[i].Name, name); err != nil {
						t.Fatalf("op %d rename %s: %v", op, w[i].Name, err)
					}
					w[i].Name = name
				}
				checkAgainstBatch(t, s, w)
			}
		})
	}
}

// clusterWorld is the benchmark's world shape: n regions of 16 edges in
// groups of eight, so pairs inside a group run the exact kernel.
func clusterWorld(seed int64, n int) []NamedRegion {
	rs := workload.New(seed).Cluster(n, n/8, 16)
	out := make([]NamedRegion, len(rs))
	for i, r := range rs {
		out[i] = NamedRegion{Name: fmt.Sprintf("c%04d", i), Region: r}
	}
	return out
}

// TestRelationStoreIsLinear pins the store's cost model: what it retains
// grows with n, not n², and an edit costs the same whatever n is — no
// allocation and no kernel run depends on how many other regions there are.
func TestRelationStoreIsLinear(t *testing.T) {
	alt := geom.Rgn(workload.Box(200, 200, 210, 208))
	var allocs [2]float64
	for k, n := range []int{100, 800} {
		w := clusterWorld(7, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := NewRelationStore(w, StoreOptions{Workers: 1, Pct: true})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); n == 800 && retained > 4<<20 {
			t.Errorf("store over %d regions retains %d bytes, want < 4 MiB", n, retained)
		}
		st0 := s.Stats()
		allocs[k] = testing.AllocsPerRun(20, func() {
			if err := s.SetGeometry(w[3].Name, alt); err != nil {
				t.Fatal(err)
			}
		})
		if st := s.Stats(); st != st0 {
			t.Errorf("n=%d: SetGeometry ran kernels: stats %+v -> %+v", n, st0, st)
		}
		runtime.KeepAlive(s)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("SetGeometry allocates %v times at n=100 and %v at n=800", allocs[0], allocs[1])
	}
}

// TestRelationStoreStats: the counters count reads, one per answered pair,
// under the stage that decided it; edits move only BulkBatches.
func TestRelationStoreStats(t *testing.T) {
	w := clusterWorld(7, 64)
	n := len(w)
	s, err := NewRelationStore(w, StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (StoreStats{}) {
		t.Fatalf("fresh store has counted %+v", st)
	}
	_, want := batchCDR(t, w, BatchOptions{Workers: 1})
	_, wantPct := batchPct(t, w, BatchOptions{Workers: 1})
	// The same pairs one by one and as a sweep land on the same stages.
	for _, a := range w {
		for _, b := range w {
			if a.Name == b.Name {
				continue
			}
			if _, _, err := s.RelationPercent(a.Name, b.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	single := s.Stats()
	s.Pairs()
	if _, err := s.PctPairs(); err != nil {
		t.Fatal(err)
	}
	both := s.Stats()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Passes", single.Passes, 2 * n * (n - 1)},
		{"PruneSingleTile", single.PruneSingleTile, want.PruneSingleTile},
		{"PruneBand", single.PruneBand, want.PruneBand},
		{"ExactPairs", single.ExactPairs, n*(n-1) - want.PruneSingleTile - want.PruneBand},
		{"PrunePctTile", single.PrunePctTile, wantPct.PrunePctTile},
		{"PrunePctPoly", single.PrunePctPoly, wantPct.PrunePctPoly},
		{"ExactPctPairs", single.ExactPctPairs, n*(n-1) - wantPct.PrunePctTile - wantPct.PrunePctPoly},
		{"sweep Passes", both.Passes, 2 * single.Passes},
		{"sweep ExactPairs", both.ExactPairs, 2 * single.ExactPairs},
		{"sweep ExactPctPairs", both.ExactPctPairs, 2 * single.ExactPctPairs},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if single.ExactPairs == 0 || single.PruneSingleTile == 0 {
		t.Errorf("world does not exercise both stages: %+v", single)
	}
	// A row — the pin among its own candidates — counts what the same n−1
	// single reads count, stage by stage, on a world that has both stages.
	checkRows(t, s)
}

// TestRelateRowPollsPerStride: a row polls its context once per rowStride
// pairs — before any kernel when it is already cancelled, within one stride
// when it is cancelled on the way — and counts only the pairs it ran.
func TestRelateRowPollsPerStride(t *testing.T) {
	w := clusterWorld(3, 2*rowStride+40)
	n := len(w)
	s, err := NewRelationStore(w, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.PreparedAll(s.Names())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Relation, n)
	for _, c := range []struct{ cancelAt, wantPolls, wantPairs int }{
		{0, 3, n - 1},         // live: ⌈n/rowStride⌉ polls
		{1, 1, 0},             // already cancelled: no kernel runs
		{2, 2, rowStride - 1}, // cancelled after the first stride (the pin is in it)
	} {
		ctx := &countingCtx{Context: context.Background(), cancelAt: c.cancelAt}
		before := s.Stats().Passes
		err := s.RelateRow(ctx, ps[0], true, ps, out)
		if (c.cancelAt == 0) != (err == nil) || (err != nil && !errors.Is(err, context.Canceled)) {
			t.Errorf("cancelAt %d: err = %v", c.cancelAt, err)
		}
		if pairs := s.Stats().Passes - before; ctx.polls != c.wantPolls || pairs != c.wantPairs {
			t.Errorf("cancelAt %d: %d polls and %d pairs, want %d and %d", c.cancelAt, ctx.polls, pairs, c.wantPolls, c.wantPairs)
		}
	}
}

// countingCtx counts Err calls and reports context.Canceled from the
// cancelAt-th one on (never, when cancelAt is 0).
type countingCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestRelationStoreReadsDoNotAllocate: a single-pair read on a warm scratch
// pool is the kernel and two map lookups.
func TestRelationStoreReadsDoNotAllocate(t *testing.T) {
	w := clusterWorld(7, 64)
	s, err := NewRelationStore(w, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	// A pair inside one cluster group: the exact kernel, split buffer and all.
	a, b := w[0].Name, w[1].Name
	for name, read := range map[string]func() error{
		"Relation":        func() error { _, err := s.Relation(a, b); return err },
		"Percent":         func() error { _, err := s.Percent(a, b); return err },
		"RelationPercent": func() error { _, _, err := s.RelationPercent(a, b); return err },
	} {
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = read() }); got != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, got)
		}
	}
}

// TestRelationStoreEdits: a rename keeps every answer under the new name, a
// remove drops exactly the removed region's pairs.
func TestRelationStoreEdits(t *testing.T) {
	w := batchWorkload(7, 12)
	n := len(w)
	s, err := NewRelationStore(w, StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	relBefore, err := s.Relation(w[0].Name, w[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rename(w[0].Name, "renamed"); err != nil {
		t.Fatal(err)
	}
	relAfter, err := s.Relation("renamed", w[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if relAfter != relBefore {
		t.Errorf("rename changed the relation: %v -> %v", relBefore, relAfter)
	}
	if s.Has(w[0].Name) {
		t.Error("old name still present after rename")
	}
	if err := s.Remove(w[5].Name); err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.Pairs()), (n-1)*(n-2); got != want {
		t.Errorf("pairs after remove = %d, want %d", got, want)
	}
	if got := s.Stats().DeltaPairs; got != 0 {
		t.Errorf("DeltaPairs = %d, want 0", got)
	}
}

// TestRelationStoreErrors covers the error surface: unknown names are
// ErrUnknownRegion, duplicates and degenerate geometry are rejected with the
// store untouched.
func TestRelationStoreErrors(t *testing.T) {
	w := batchWorkload(11, 6)
	s, err := NewRelationStore(w, StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		s.Remove("nope"),
		s.SetGeometry("nope", geom.Rgn(workload.Box(0, 0, 1, 1))),
		s.Rename("nope", "other"),
		func() error { _, err := s.Relation("nope", w[0].Name); return err }(),
		func() error { _, err := s.Relation(w[0].Name, "nope"); return err }(),
		func() error { _, err := s.Percent("nope", w[0].Name); return err }(),
		func() error { _, err := s.Areas(w[0].Name, "nope"); return err }(),
	} {
		if !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("err = %v, want ErrUnknownRegion", err)
		}
	}
	if err := s.Add(w[0].Name, geom.Rgn(workload.Box(0, 0, 1, 1))); err == nil {
		t.Error("duplicate Add should fail")
	}
	if err := s.Add("", geom.Rgn(workload.Box(0, 0, 1, 1))); err == nil {
		t.Error("empty-name Add should fail")
	}
	if err := s.Rename(w[0].Name, w[1].Name); err == nil {
		t.Error("Rename onto an existing name should fail")
	}
	if _, err := s.Relation(w[0].Name, w[0].Name); err == nil {
		t.Error("self-relation lookup should fail")
	}

	// Degenerate replacement geometry: rejected, store unchanged.
	wantPairs := s.Pairs()
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if err := s.SetGeometry(w[2].Name, line); err == nil {
		t.Error("degenerate SetGeometry should fail")
	}
	if err := s.Add("degenerate", line); err == nil {
		t.Error("degenerate Add should fail")
	}
	if !reflect.DeepEqual(s.Pairs(), wantPairs) {
		t.Error("failed edit mutated the store")
	}

	// A qualitative-only store refuses quantitative lookups.
	q, err := NewRelationStore(w, StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Percent(w[0].Name, w[1].Name); err == nil {
		t.Error("Percent on a non-Pct store should fail")
	}
	if _, err := q.PctPairs(); err == nil {
		t.Error("PctPairs on a non-Pct store should fail")
	}
}

// TestRelationStoreLookups: cached lookups agree with the direct one-shot
// algorithms, and Percent/Areas stay mutually consistent.
func TestRelationStoreLookups(t *testing.T) {
	w := batchWorkload(13, 10)
	s, err := NewRelationStore(w, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]geom.Region{}
	for _, r := range w {
		byName[r.Name] = r.Region
	}
	for _, a := range w {
		for _, b := range w {
			if a.Name == b.Name {
				continue
			}
			got, err := s.Relation(a.Name, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ComputeCDR(byName[a.Name], byName[b.Name])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s vs %s: store %v, ComputeCDR %v", a.Name, b.Name, got, want)
			}
			m, err := s.Percent(a.Name, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			wantM, _, err := ComputeCDRPct(byName[a.Name], byName[b.Name])
			if err != nil {
				t.Fatal(err)
			}
			if !m.ApproxEqual(wantM, 1e-9) {
				t.Fatalf("%s vs %s: store matrix diverged from ComputeCDRPct", a.Name, b.Name)
			}
			areas, err := s.Areas(a.Name, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ApproxEqual(areas.Percent(), 1e-9) {
				t.Fatalf("%s vs %s: Areas and Percent inconsistent", a.Name, b.Name)
			}
		}
	}
	names := s.Names()
	if len(names) != len(w) {
		t.Fatalf("Names() = %d entries, want %d", len(names), len(w))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() not sorted")
		}
	}
	if p, ok := s.Prepared(w[0].Name); !ok || p.Name != w[0].Name {
		t.Error("Prepared lookup failed")
	}
	if _, ok := s.Prepared("nope"); ok {
		t.Error("Prepared should miss unknown names")
	}
}

// TestRelationStoreWorkerCounts: the all-pairs read after an edit is
// deterministic across pool sizes (run with -race this also exercises the
// pool for races).
func TestRelationStoreWorkerCounts(t *testing.T) {
	w := batchWorkload(17, 20)
	alt := geom.Rgn(workload.Box(3, 3, 40, 30))
	var want []PairRelation
	for _, workers := range []int{1, 2, 4, 16} {
		s, err := NewRelationStore(w, StoreOptions{Workers: workers, Pct: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetGeometry(w[4].Name, alt); err != nil {
			t.Fatal(err)
		}
		got := s.Pairs()
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: delta output differs", workers)
		}
	}
}

// TestRelationStoreTiny: stores with zero or one region are legal and empty.
func TestRelationStoreTiny(t *testing.T) {
	s, err := NewRelationStore(nil, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Pairs() != nil {
		t.Fatal("empty store should hold nothing")
	}
	if err := s.Add("a", geom.Rgn(workload.Box(0, 0, 4, 4))); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", geom.Rgn(workload.Box(10, 0, 14, 4))); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Relation("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if rel != E {
		t.Errorf("b vs a = %v, want %v", rel, E)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("store should be empty again")
	}
}
