package config

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// TestTrackedFollowsEdits drives a tracked image through every edit method
// and asserts, after each one, that the maintained store and index agree
// with a from-scratch ComputeRelations / Track over the same document.
func TestTrackedFollowsEdits(t *testing.T) {
	img := Greece()
	tr, err := Track(img, core.StoreOptions{Workers: 2, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	check := func(stage string) {
		t.Helper()
		if err := tr.Err(); err != nil {
			t.Fatalf("%s: tracked error: %v", stage, err)
		}
		if tr.Store().Len() != len(img.Regions) || tr.Index().Len() != len(img.Regions) {
			t.Fatalf("%s: store %d / index %d regions, image has %d",
				stage, tr.Store().Len(), tr.Index().Len(), len(img.Regions))
		}
		// Materialize from the store must equal a full batch recompute.
		if err := tr.Materialize(true); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got := append([]Relation(nil), img.Relations...)
		if err := img.ComputeRelations(true); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(got, img.Relations) {
			t.Fatalf("%s: store materialisation differs from batch recompute", stage)
		}
		// The maintained index answers like a freshly tracked one.
		ref := img.Regions[0].Geometry()
		allowed := core.NewRelationSet(core.N, core.NE, core.NW, core.W, core.E)
		live, err := tr.Index().Select(ref, allowed)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		fresh, err := Track(img, core.StoreOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer fresh.Close()
		want, err := fresh.Index().Select(ref, allowed)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("%s: live index select %v != fresh %v", stage, live, want)
		}
	}
	check("initial")

	if err := img.AddRegion("delos", "Delos", "gold", sqRegion(25.2, 37.3, 25.35, 37.45)); err != nil {
		t.Fatal(err)
	}
	check("add")

	if err := img.SetRegionGeometry("delos", sqRegion(20.0, 39.0, 20.3, 39.3)); err != nil {
		t.Fatal(err)
	}
	check("setgeometry")

	if err := img.RenameRegion("delos", "corcyra"); err != nil {
		t.Fatal(err)
	}
	check("rename")

	if err := img.RemoveRegion("corcyra"); err != nil {
		t.Fatal(err)
	}
	check("remove")

	// Rejected edits must not reach the store or index.
	before := tr.Store().Len()
	if err := img.AddRegion("attica", "", "", sqRegion(0, 0, 1, 1)); err == nil {
		t.Fatal("duplicate AddRegion should fail")
	}
	bad := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1)))
	if err := img.SetRegionGeometry("attica", bad); err == nil {
		t.Fatal("invalid SetRegionGeometry should fail")
	}
	if tr.Store().Len() != before || tr.Err() != nil {
		t.Fatalf("rejected edits leaked into the store: len=%d err=%v", tr.Store().Len(), tr.Err())
	}
}

// TestTrackedEditsRunNoKernels: an edit arriving through the image prepares
// the touched region and nothing else — no pair is computed until one is
// read.
func TestTrackedEditsRunNoKernels(t *testing.T) {
	img := Greece()
	tr, err := Track(img, core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := img.SetRegionGeometry("attica", sqRegion(24.5, 38.5, 25.0, 39.0)); err != nil {
		t.Fatal(err)
	}
	if err := img.RenameRegion("attica", "akte"); err != nil {
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

// TestTrackedLatchesErrors: an out-of-band notification that cannot be
// applied latches Err and freezes further deltas instead of corrupting the
// maintained state.
func TestTrackedLatchesErrors(t *testing.T) {
	img := tinyImage()
	tr, err := Track(img, core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.RegionRemoved("ghost") // simulates store/image divergence
	if tr.Err() == nil {
		t.Fatal("unappliable delta should latch an error")
	}
	lenBefore := tr.Store().Len()
	if err := img.AddRegion("c", "", "", sqRegion(8, 8, 9, 9)); err != nil {
		t.Fatal(err) // the document edit itself still succeeds
	}
	if tr.Store().Len() != lenBefore {
		t.Error("latched tracker kept applying deltas")
	}
	if err := tr.Materialize(false); err == nil {
		t.Error("Materialize on a latched tracker should fail")
	}
}

// TestTrackedCloseUnsubscribes: after Close, image edits no longer reach
// the store.
func TestTrackedCloseUnsubscribes(t *testing.T) {
	img := tinyImage()
	tr, err := Track(img, core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if err := img.AddRegion("c", "", "", sqRegion(8, 8, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if tr.Store().Len() != 2 {
		t.Errorf("closed tracker still receives edits: len = %d", tr.Store().Len())
	}
	// Tracking an invalid document fails up front.
	if _, err := Track(&Image{}, core.StoreOptions{}); err == nil {
		t.Error("Track of an invalid image should fail")
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
	defer tr.Close()
	n := len(tr.Image().Regions)
	for name, bulk := range map[string][]BulkRegion{
		"within the batch":  {{ID: "x", Geometry: sqRegion(0, 0, 1, 1)}, {ID: "x", Geometry: sqRegion(2, 2, 3, 3)}},
		"against a held id": {{ID: "x", Geometry: sqRegion(0, 0, 1, 1)}, {ID: "attica", Geometry: sqRegion(2, 2, 3, 3)}},
	} {
		if err := tr.BulkAddRegions(bulk); !errors.Is(err, ErrDuplicateRegion) {
			t.Errorf("duplicate %s: err = %v, want ErrDuplicateRegion", name, err)
		}
		if len(tr.Image().Regions) != n || tr.Store().Len() != n || tr.Index().Len() != n {
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
