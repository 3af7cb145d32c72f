package query

import (
	"context"
	"reflect"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
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
// must not change any query answer — it only changes where cached relations
// come from.
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
	if err := img.SetRegionGeometry("attica", moved); err != nil {
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

// TestEvalStorePartialCoverage: pairs outside the store fall back to the
// evaluator's own lazy computation.
func TestEvalStorePartialCoverage(t *testing.T) {
	img := config.Greece()
	// A store over a subset of the regions only.
	sub := []core.NamedRegion{
		{Name: "attica", Region: img.FindRegion("attica").Geometry()},
		{Name: "crete", Region: img.FindRegion("crete").Geometry()},
	}
	store, err := core.NewRelationStore(sub, core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	ev.UseStore(store)
	// In-store pair.
	if _, err := ev.Relation("attica", "crete"); err != nil {
		t.Fatal(err)
	}
	// Out-of-store pair falls back to computation.
	rel, err := ev.Relation("macedonia", "crete")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ComputeCDR(img.FindRegion("macedonia").Geometry(), img.FindRegion("crete").Geometry())
	if err != nil {
		t.Fatal(err)
	}
	if rel != want {
		t.Errorf("fallback relation = %v, want %v", rel, want)
	}
	// Percent on a qualitative-only store falls back too.
	if _, err := ev.Percent("attica", "crete"); err != nil {
		t.Fatal(err)
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
