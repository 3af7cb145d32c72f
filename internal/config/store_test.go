package config

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// docIDs returns the tracked document's region ids, sorted.
func docIDs(tr *Tracked) (ids []string) {
	tr.View(func(img *Image) error {
		ids = img.RegionIDs()
		return nil
	})
	sort.Strings(ids)
	return ids
}

// checkInStep asserts that document, store and live index hold the same
// regions, and that the maintained index answers a selection like a freshly
// tracked copy of the document.
func checkInStep(t *testing.T, stage string, tr *Tracked) {
	t.Helper()
	if err := tr.Err(); err != nil {
		t.Fatalf("%s: tracked error: %v", stage, err)
	}
	var doc *Image
	tr.View(func(img *Image) error {
		doc = &Image{Regions: append([]Region(nil), img.Regions...)}
		return nil
	})
	ids := doc.RegionIDs()
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, tr.Store().Names()) {
		t.Fatalf("%s: document ids %v != store names %v", stage, ids, tr.Store().Names())
	}
	ref := doc.Regions[0].Geometry()
	all, err := tr.Index().Select(ref, core.Universe())
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if !reflect.DeepEqual(ids, all) || tr.Index().Len() != len(ids) {
		t.Fatalf("%s: document ids %v != index ids %v (Len %d)", stage, ids, all, tr.Index().Len())
	}
	fresh, err := Track(doc, core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	allowed := core.NewRelationSet(core.N, core.NE, core.NW, core.W, core.E)
	live, err := tr.Index().Select(ref, allowed)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	want, err := fresh.Index().Select(ref, allowed)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("%s: live index select %v != fresh %v", stage, live, want)
	}
}

// TestTrackedFollowsEdits drives a tracked image through every edit method
// and asserts, after each one, that the maintained store and index agree
// with a from-scratch ComputeRelations / Track over the same document —
// then does the same over a seeded random sequence of valid and invalid
// edits.
func TestTrackedFollowsEdits(t *testing.T) {
	tr, err := Track(Greece(), core.StoreOptions{Workers: 2, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		checkInStep(t, stage, tr)
		// Materialising from the store must equal a full batch recompute.
		err := tr.WithMaterialized(true, func(img *Image) error {
			batch := &Image{Regions: img.Regions}
			if err := batch.ComputeRelations(true); err != nil {
				return err
			}
			if !reflect.DeepEqual(img.Relations, batch.Relations) {
				t.Fatalf("%s: store materialisation differs from batch recompute", stage)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("initial")
	if err := tr.AddRegion("delos", "Delos", "gold", sqRegion(25.2, 37.3, 25.35, 37.45)); err != nil {
		t.Fatal(err)
	}
	check("add")
	if err := tr.SetRegionGeometry("delos", sqRegion(20.0, 39.0, 20.3, 39.3)); err != nil {
		t.Fatal(err)
	}
	check("setgeometry")
	if err := tr.RenameRegion("delos", "corcyra"); err != nil {
		t.Fatal(err)
	}
	check("rename")
	if err := tr.RemoveRegion("corcyra"); err != nil {
		t.Fatal(err)
	}
	check("remove")

	// 600 random edits over a pool of 16 ids, about a third of them
	// refused (unknown or duplicate id, degenerate ring): every accepted
	// one moves the generation by exactly one, every refused one by none.
	rng := rand.New(rand.NewSource(7))
	pick := func() string { return fmt.Sprintf("r%02d", rng.Intn(16)) }
	shape := func() geom.Region {
		x, y := rng.Float64()*20+15, rng.Float64()*10+30
		if rng.Intn(8) == 0 {
			return geom.Rgn(geom.Poly(geom.Pt(x, y), geom.Pt(x+1, y+1), geom.Pt(x+2, y+2)))
		}
		return sqRegion(x, y, x+rng.Float64()+0.1, y+rng.Float64()+0.1)
	}
	accepted := 0
	for i := 0; i < 600; i++ {
		gen := tr.Store().Generation()
		var err error
		var stage string
		selfRename := false
		switch id := pick(); rng.Intn(5) {
		case 0, 1:
			stage = "add " + id
			err = tr.AddRegion(id, "", "", shape())
		case 2:
			stage = "set " + id
			err = tr.SetRegionGeometry(id, shape())
		case 3:
			to := pick()
			stage = "rename " + id + "→" + to
			err = tr.RenameRegion(id, to)
			selfRename = id == to // of a held region: succeeds and is no edit
		case 4:
			stage = "remove " + id
			err = tr.RemoveRegion(id)
		}
		want := gen
		if err == nil {
			accepted++
			if !selfRename {
				want++
			}
		}
		if got := tr.Store().Generation(); got != want {
			t.Fatalf("step %d (%s, err %v): generation %d → %d", i, stage, err, gen, got)
		}
		checkInStep(t, fmt.Sprintf("step %d (%s)", i, stage), tr)
	}
	if accepted < 150 || accepted > 450 {
		t.Errorf("random walk accepted %d of 600 edits: not a mix", accepted)
	}
}

// TestTrackedEditsRunNoKernels: an edit prepares the touched region and
// nothing else — no pair is computed until one is read.
func TestTrackedEditsRunNoKernels(t *testing.T) {
	tr, err := Track(Greece(), core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRegionGeometry("attica", sqRegion(24.5, 38.5, 25.0, 39.0)); err != nil {
		t.Fatal(err)
	}
	if err := tr.RenameRegion("attica", "akte"); err != nil {
		t.Fatal(err)
	}
	if got := tr.Store().Stats(); got != (core.StoreStats{}) {
		t.Errorf("edits ran kernels: %+v", got)
	}
	if _, err := tr.Store().Relation("akte", "peloponnesos"); err != nil {
		t.Fatal(err)
	}
	if got := tr.Store().Stats().Passes; got != 1 {
		t.Errorf("one read answered %d pairs", got)
	}
}

// TestRefusedEditChangesNothing: an edit of any kind that is turned away —
// by the document checks or by the store — leaves document bytes, store,
// index and generation as they were and does not latch Err, so the next
// edit is served. Tracking an invalid document fails up front the same way.
func TestRefusedEditChangesNothing(t *testing.T) {
	tr, err := Track(Greece(), core.StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	ok := sqRegion(0, 0, 1, 1)
	bowtie := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2)))
	// Finite vertices, infinite shoelace sum.
	overflow := sqRegion(-1e200, -1e200, 1e200, 1e200)
	bulk := func(rs ...BulkRegion) func() error {
		return func() error { return tr.BulkAddRegions(rs) }
	}
	invalid := errors.New("any error that is neither sentinel")
	for _, c := range []struct {
		name string
		edit func() error
		want error
	}{
		{"add duplicate id", func() error { return tr.AddRegion("attica", "", "", ok) }, ErrDuplicateRegion},
		{"add empty id", func() error { return tr.AddRegion("", "", "", ok) }, invalid},
		{"add invalid ring", func() error { return tr.AddRegion("x", "", "", bowtie) }, invalid},
		{"add overflow ring", func() error { return tr.AddRegion("x", "", "", overflow) }, invalid},
		{"add empty region", func() error { return tr.AddRegion("x", "", "", nil) }, invalid},
		{"remove unknown id", func() error { return tr.RemoveRegion("ghost") }, ErrUnknownRegion},
		{"remove empty id", func() error { return tr.RemoveRegion("") }, ErrUnknownRegion},
		{"rename unknown id", func() error { return tr.RenameRegion("ghost", "x") }, ErrUnknownRegion},
		{"rename ghost to itself", func() error { return tr.RenameRegion("ghost", "ghost") }, ErrUnknownRegion},
		{"rename onto held id", func() error { return tr.RenameRegion("attica", "crete") }, ErrDuplicateRegion},
		{"rename to empty id", func() error { return tr.RenameRegion("attica", "") }, invalid},
		{"set unknown id", func() error { return tr.SetRegionGeometry("ghost", ok) }, ErrUnknownRegion},
		{"set invalid ring", func() error { return tr.SetRegionGeometry("attica", bowtie) }, invalid},
		{"set overflow ring", func() error { return tr.SetRegionGeometry("attica", overflow) }, invalid},
		{"bulk duplicate in batch", bulk(BulkRegion{ID: "x", Geometry: ok}, BulkRegion{ID: "x", Geometry: ok}), ErrDuplicateRegion},
		{"bulk duplicate of held id", bulk(BulkRegion{ID: "x", Geometry: ok}, BulkRegion{ID: "attica", Geometry: ok}), ErrDuplicateRegion},
		{"bulk empty id", bulk(BulkRegion{ID: "x", Geometry: ok}, BulkRegion{Geometry: ok}), invalid},
		{"bulk invalid ring", bulk(BulkRegion{ID: "x", Geometry: ok}, BulkRegion{ID: "y", Geometry: bowtie}), invalid},
		{"bulk overflow ring", bulk(BulkRegion{ID: "x", Geometry: ok}, BulkRegion{ID: "y", Geometry: overflow}), invalid},
	} {
		var doc []byte
		tr.View(func(img *Image) (err error) { doc, err = img.Bytes(); return })
		names, gen, n := tr.Store().Names(), tr.Store().Generation(), tr.Index().Len()

		err := c.edit()
		switch {
		case err == nil:
			t.Fatalf("%s: accepted", c.name)
		case c.want != invalid && !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		case c.want == invalid && (errors.Is(err, ErrUnknownRegion) || errors.Is(err, ErrDuplicateRegion)):
			t.Errorf("%s: err = %v wears a sentinel it should not", c.name, err)
		}
		var after []byte
		tr.View(func(img *Image) (err error) { after, err = img.Bytes(); return })
		if !bytes.Equal(doc, after) {
			t.Errorf("%s: refused edit changed the document", c.name)
		}
		if !reflect.DeepEqual(names, tr.Store().Names()) || gen != tr.Store().Generation() {
			t.Errorf("%s: refused edit changed the store (generation %d → %d)", c.name, gen, tr.Store().Generation())
		}
		if tr.Index().Len() != n {
			t.Errorf("%s: refused edit changed the index", c.name)
		}
		if err := tr.Err(); err != nil {
			t.Fatalf("%s: refused edit latched %v", c.name, err)
		}
	}
	checkInStep(t, "after the refusals", tr)
	if err := tr.AddRegion("x", "", "", ok); err != nil {
		t.Errorf("edit after the refusals: %v", err)
	}

	if _, err := Track(&Image{}, core.StoreOptions{}); err == nil {
		t.Error("Track of an invalid image should fail")
	}
}

// TestTrackedDetectsDisagreement: Err is fault detection, reachable only by
// editing the store or the index behind the Tracked's back. A store that
// refuses what the document allows returns its error with nothing changed
// and nothing latched; an index that cannot follow an edit the store has
// accepted latches Err, and every later edit is turned away.
func TestTrackedDetectsDisagreement(t *testing.T) {
	tr := trackTiny(t)
	if err := tr.Store().Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveRegion("a"); !errors.Is(err, core.ErrUnknownRegion) {
		t.Fatalf("store refusal: err = %v, want core.ErrUnknownRegion", err)
	}
	if !hasRegion(tr, "a") || tr.Index().Len() != 2 || tr.Err() != nil {
		t.Fatalf("store refusal changed document or index, or latched %v", tr.Err())
	}

	if err := tr.Index().Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := tr.RenameRegion("b", "beta"); err == nil || tr.Err() == nil {
		t.Fatalf("index disagreement: err = %v, Err() = %v, want both set", err, tr.Err())
	}
	if err := tr.AddRegion("c", "", "", sqRegion(8, 8, 9, 9)); err == nil || tr.Store().Has("c") {
		t.Errorf("edit after a latched fault: err = %v, store has c = %v", err, tr.Store().Has("c"))
	}
	if err := tr.WithMaterialized(false, func(*Image) error { return nil }); err == nil {
		t.Error("WithMaterialized after a latched fault should fail")
	}
}

// TestBulkAddRegionsDuplicates: an id repeated within the batch or already
// held fails with ErrDuplicateRegion and leaves document, store and index
// untouched.
func TestBulkAddRegionsDuplicates(t *testing.T) {
	tr, err := Track(Greece(), core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(docIDs(tr))
	for name, bulk := range map[string][]BulkRegion{
		"within the batch":  {{ID: "x", Geometry: sqRegion(0, 0, 1, 1)}, {ID: "x", Geometry: sqRegion(2, 2, 3, 3)}},
		"against a held id": {{ID: "x", Geometry: sqRegion(0, 0, 1, 1)}, {ID: "attica", Geometry: sqRegion(2, 2, 3, 3)}},
	} {
		if err := tr.BulkAddRegions(bulk); !errors.Is(err, ErrDuplicateRegion) {
			t.Errorf("duplicate %s: err = %v, want ErrDuplicateRegion", name, err)
		}
		if len(docIDs(tr)) != n || tr.Store().Len() != n || tr.Index().Len() != n {
			t.Errorf("duplicate %s: rejected batch changed the world", name)
		}
	}
}

// TestBulkAddRegionsScales: the duplicate check is one lookup per incoming
// region, so the second 10 000 of a 2 × 10 000 ingest must not cost a
// multiple of the first (a scan of the document per id made it 12×).
func TestBulkAddRegionsScales(t *testing.T) {
	tr, err := Track(tinyImage(), core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const k = 10000
	var cost [2]time.Duration
	for half := range cost {
		bulk := make([]BulkRegion, k)
		for i := range bulk {
			x, y := float64(i%100)*3, float64(half*k+i)/100*3
			bulk[i] = BulkRegion{ID: fmt.Sprintf("b%d-%05d", half, i), Geometry: sqRegion(x, y, x+2, y+2)}
		}
		start := time.Now()
		if err := tr.BulkAddRegions(bulk); err != nil {
			t.Fatal(err)
		}
		cost[half] = time.Since(start)
	}
	t.Logf("first %v, second %v", cost[0], cost[1])
	if cost[1] > 4*cost[0] {
		t.Errorf("second half of the ingest took %v, first half %v: bulk ingest is not linear", cost[1], cost[0])
	}
}
