package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// storeQueries is a mix of qualitative, quantitative and attribute queries
// exercising both Relation and Percent lookups.
var storeQueries = []string{
	"q(x, y) :- x {N, N:NE, NE, NW, N:NW} y",
	"q(x, y) :- x S y, color(x) = red",
	"q(x, y) :- pct(x B y) > 0",
	"q(x, y, z) :- x {W, W:NW, SW} y, y {S, S:SW, S:SE} z",
	"q(x, y) :- y = peloponnesos, x {N, NE, E} y",
}

// TestEvalWithStoreEquivalence: wiring a RelationStore into the evaluator
// must not change any query answer — it only replaces the private store the
// evaluator would build over the same regions.
func TestEvalWithStoreEquivalence(t *testing.T) {
	img := config.Greece()
	store, err := trackStore(t, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range storeQueries {
		plain, err := NewEvaluator(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.EvalString(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		backed, err := NewEvaluator(img)
		if err != nil {
			t.Fatal(err)
		}
		backed.UseStore(store)
		got, err := backed.EvalString(qs)
		if err != nil {
			t.Fatalf("%s (store): %v", qs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: store-backed answers differ\n got %v\nwant %v", qs, got, want)
		}
	}
}

// trackStore builds a Pct relation store over the image's regions.
func trackStore(t *testing.T, img *config.Image) (*core.RelationStore, error) {
	t.Helper()
	regions := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		regions[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	return core.NewRelationStore(regions, core.StoreOptions{Pct: true})
}

// TestEvalStoreSeesEdits: a store kept fresh by config.Track serves edited
// relations to a new evaluator without any recompute-by-query, and without
// consulting stale materialised Relation elements.
func TestEvalStoreSeesEdits(t *testing.T) {
	img := config.Greece()
	tr, err := config.Track(img, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Materialise, then move attica far north-west: the document's Relation
	// list for other pairs is now stale-but-present, the store is fresh.
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	g := img.FindRegion("attica").Geometry()
	moved := g.Translate(geom.Pt(-30, 30))
	if err := tr.SetRegionGeometry("attica", moved); err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}

	ev, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	ev.UseStore(tr.Store())
	rel, err := ev.Relation("attica", "peloponnesos")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ComputeCDR(moved, img.FindRegion("peloponnesos").Geometry())
	if err != nil {
		t.Fatal(err)
	}
	if rel != want {
		t.Errorf("store-backed relation = %v, want fresh %v", rel, want)
	}

	// The percent path serves from the store too.
	m, err := ev.Percent("attica", "peloponnesos")
	if err != nil {
		t.Fatal(err)
	}
	wantM, _, err := core.ComputeCDRPct(moved, img.FindRegion("peloponnesos").Geometry())
	if err != nil {
		t.Fatal(err)
	}
	if !m.ApproxEqual(wantM, 1e-9) {
		t.Error("store-backed percent matrix diverged from fresh computation")
	}
}

// TestPushdownResultIsRightSized: the plan cache retains the pushed-down
// candidate lists of parameter-free queries, so a selective condition must
// come back in a backing array of its own size — not the candidate set's —
// and an answer through the plan cache stays what the uncached one is.
func TestPushdownResultIsRightSized(t *testing.T) {
	img := config.Greece()
	store, err := trackStore(t, img)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	e.UseStore(store)
	cand := e.snap.ids
	for _, set := range []string{"{N}", "{B:S:SW:W}", "{N, NE, E, SE, S, SW, W, NW}"} {
		rels, err := core.ParseRelationSet(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, negated := range []bool{false, true} {
			rc := RelCond{Left: "x", Rels: rels, Right: "y", Negated: negated}
			keep, err := e.pushCond(context.Background(), rc, "attica", true, cand)
			if err != nil {
				t.Fatal(err)
			}
			if len(keep) < len(cand)/2 && cap(keep) != len(keep) {
				t.Errorf("%v: %d ids kept of %d in a backing array of %d", rc, len(keep), len(cand), cap(keep))
			}
			var want []string
			for _, id := range cand {
				rel := core.B
				if id != "attica" {
					if rel, err = e.Relation(id, "attica"); err != nil {
						t.Fatal(err)
					}
				}
				if rels.Contains(rel) != negated {
					want = append(want, id)
				}
			}
			if len(keep) != len(want) || (len(want) > 0 && !reflect.DeepEqual(keep, want)) {
				t.Errorf("%v: kept %v, want %v", rc, keep, want)
			}
		}
	}
}

// editedTrackedWorld tracks a clustered world, colors cycling c0..c3, and
// edits it so that the store's slot order differs from sorted id order:
// removals compact slots, renames move ids to both ends of the order, an
// add lands in the middle, a geometry change swaps a held form.
func editedTrackedWorld(t *testing.T, n int) *config.Tracked {
	t.Helper()
	g := workload.New(5)
	img := &config.Image{Name: "row"}
	for i, r := range g.Cluster(n, n/8, 8) {
		id := fmt.Sprintf("w%04d", i)
		reg := config.Region{ID: id, Name: id, Color: fmt.Sprintf("c%d", i%4)}
		reg.SetGeometry(r)
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	for _, err := range []error{
		tr.RemoveRegion("w0002"),
		tr.RemoveRegion("w0010"),
		tr.RenameRegion("w0005", "a-first"),
		tr.RenameRegion("w0007", "zz-last"),
		tr.AddRegion("m-mid", "", "c1", geom.Rgn(g.StarPolygon(40, 40, 2, 4, 8))),
		tr.SetRegionGeometry("w0020", geom.Rgn(g.StarPolygon(10, 70, 2, 4, 8))),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestPushdownRowEqualsPairwise: a store-backed pushdown is one row read,
// and keeps exactly the ids n single store reads keep — pinned as reference
// and as primary, positive and negated, over the whole world and over
// attribute-filtered candidate sets, with the pin inside the candidates and
// outside them, on a store whose slot order is not the sorted id order.
func TestPushdownRowEqualsPairwise(t *testing.T) {
	tr := editedTrackedWorld(t, 64)
	store := tr.Store()
	_ = tr.View(func(img *config.Image) error {
		e := NewSnapshot(img).Evaluator()
		e.UseStore(store)
		color := e.attrIndex("color")
		rels := core.NewRelationSet(core.N, core.NE, core.E, core.B, core.S|core.SW, core.W|core.NW)
		for _, cand := range [][]string{e.snap.ids, color["c1"], subtractSorted(e.snap.ids, color["c1"])} {
			for _, pin := range []string{"a-first", "m-mid", "w0020", "w0033", "zz-last"} {
				for _, pinnedIsRef := range []bool{true, false} {
					for _, negated := range []bool{false, true} {
						var want []string
						inCand := 0
						for _, id := range cand {
							rel := core.B
							if id == pin {
								inCand = 1
							} else {
								a, b := id, pin
								if !pinnedIsRef {
									a, b = pin, id
								}
								var err error
								if rel, err = store.Relation(a, b); err != nil {
									t.Fatal(err)
								}
							}
							if rels.Contains(rel) != negated {
								want = append(want, id)
							}
						}
						before := store.Stats().Passes
						rc := RelCond{Left: "x", Rels: rels, Right: "y", Negated: negated}
						keep, err := e.pushCond(context.Background(), rc, pin, pinnedIsRef, cand)
						if err != nil {
							t.Fatal(err)
						}
						if len(keep) != len(want) || (len(want) > 0 && !reflect.DeepEqual(keep, want)) {
							t.Errorf("pin %s (ref %v, negated %v) over %d candidates: kept %v, single reads keep %v", pin, pinnedIsRef, negated, len(cand), keep, want)
						}
						if cap(keep) != len(keep) {
							t.Errorf("pin %s: %d ids kept in a backing array of %d", pin, len(keep), cap(keep))
						}
						if got := store.Stats().Passes - before; got != len(cand)-inCand {
							t.Errorf("pin %s over %d candidates (pin among them: %d): the pushdown ran %d pairs", pin, len(cand), inCand, got)
						}
					}
				}
			}
		}
		return nil
	})
}

// TestEngineSnapshotHoldsStorePrepared: at every generation the engine's
// snapshot holds, aligned with its sorted ids, the very Prepared forms the
// store holds — fetched when the snapshot is built, never copied or
// re-prepared — and a replaced store (a replica re-bootstrap) is never
// answered from the previous store's forms.
func TestEngineSnapshotHoldsStorePrepared(t *testing.T) {
	tr := editedTrackedWorld(t, 32)
	g := NewEngine(16)
	check := func(tr *config.Tracked) {
		t.Helper()
		res, _, err := g.Run(context.Background(), tr, "q(x, y) :- y = $ref, not x {N, NE} y", map[string]string{"ref": "m-mid"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plan.Pushed) != 1 {
			t.Fatalf("plan %+v: the pinned condition was not pushed", res.Plan)
		}
		snap := g.snap
		if len(snap.preps) != len(snap.ids) || len(snap.ids) != tr.Store().Len() {
			t.Fatalf("snapshot holds %d forms for %d ids, store %d regions", len(snap.preps), len(snap.ids), tr.Store().Len())
		}
		for k, id := range snap.ids {
			if p, ok := tr.Store().Prepared(id); !ok || p != snap.preps[k] {
				t.Fatalf("generation %d: snapshot form %d is not the store's form of %s", tr.Store().Generation(), k, id)
			}
		}
	}
	check(tr)
	w := workload.New(9)
	for step, edit := range []func() error{
		func() error { return tr.SetRegionGeometry("m-mid", geom.Rgn(w.StarPolygon(30, 30, 2, 4, 8))) },
		func() error { return tr.RemoveRegion("w0001") },
		func() error { return tr.RenameRegion("w0003", "b-second") },
		func() error { return tr.AddRegion("late", "", "c0", geom.Rgn(w.StarPolygon(70, 20, 2, 4, 8))) },
	} {
		if err := edit(); err != nil {
			t.Fatalf("edit %d: %v", step, err)
		}
		check(tr)
	}
	// Another tracked world at a generation the engine has seen.
	other := editedTrackedWorld(t, 32)
	other.Store().SetGeneration(tr.Store().Generation())
	check(other)
}

// BenchmarkStoreRow is one store-backed pushdown of a pinned-reference
// condition over the whole read-mix world (Cluster(800, 100, 16)): the pin
// rotates over the regions and the relation set over the eight of the
// benchmark's repeated query texts.
func BenchmarkStoreRow(b *testing.B) {
	img := &config.Image{Name: "row-bench"}
	for i, r := range workload.New(1).Cluster(800, 100, 16) {
		id := fmt.Sprintf("w%04d", i)
		reg := config.Region{ID: id, Name: id}
		reg.SetGeometry(r)
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, core.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	var conds []RelCond
	for _, set := range []string{
		"{N, NW:N, N:NE, NW:N:NE}", "{S, S:SW, S:SE, S:SW:SE}", "{E, NE:E, E:SE, NE:E:SE}", "{W, W:NW, SW:W, SW:W:NW}",
		"{N, NE, NW}", "{S, SE, SW}", "{E, NE:E, E:SE}", "{NW, W, SW}",
	} {
		rels, err := core.ParseRelationSet(set)
		if err != nil {
			b.Fatal(err)
		}
		conds = append(conds, RelCond{Left: "x", Rels: rels, Right: "y"})
	}
	e := NewSnapshot(img).Evaluator()
	e.UseStore(tr.Store())
	ids, ctx := e.snap.ids, context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.pushCond(ctx, conds[i%len(conds)], ids[i%len(ids)], true, ids); err != nil {
			b.Fatal(err)
		}
	}
}
