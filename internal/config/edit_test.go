package config

import (
	"errors"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

func sqRegion(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	))
}

// trackTiny tracks the two-region fixture.
func trackTiny(t *testing.T) *Tracked {
	t.Helper()
	tr, err := Track(tinyImage(), core.StoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// hasRegion reports whether the tracked document holds a region id.
func hasRegion(tr *Tracked, id string) (found bool) {
	tr.View(func(img *Image) error {
		found = img.FindRegion(id) != nil
		return nil
	})
	return found
}

func TestAddRegion(t *testing.T) {
	tr := trackTiny(t)
	if err := tr.AddRegion("c", "Gamma", "green", sqRegion(10, 10, 12, 12)); err != nil {
		t.Fatal(err)
	}
	if !hasRegion(tr, "c") {
		t.Fatal("added region not found")
	}
	if err := tr.View((*Image).Validate); err != nil {
		t.Fatalf("image invalid after add: %v", err)
	}
	// Duplicate id.
	if err := tr.AddRegion("c", "", "", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("duplicate id should fail")
	}
	// Empty id.
	if err := tr.AddRegion("", "", "", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("empty id should fail")
	}
	// Invalid geometry.
	bowtie := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2)))
	if err := tr.AddRegion("d", "", "", bowtie); err == nil {
		t.Error("invalid geometry should fail")
	}
}

func TestRemoveRegion(t *testing.T) {
	tr := trackTiny(t)
	if err := tr.RemoveRegion("a"); err != nil {
		t.Fatalf("RemoveRegion failed for existing region: %v", err)
	}
	if hasRegion(tr, "a") {
		t.Error("region still present after removal")
	}
	if err := tr.RemoveRegion("a"); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("second removal err = %v, want ErrUnknownRegion", err)
	}
}

// TestEditUnknownRegionSentinel pins the error contract: every edit method
// addressing a missing region reports the wrapped sentinel.
func TestEditUnknownRegionSentinel(t *testing.T) {
	tr := trackTiny(t)
	for _, err := range []error{
		tr.RemoveRegion("ghost"),
		tr.RenameRegion("ghost", "x"),
		tr.RenameRegion("ghost", "ghost"), // a self-rename is a no-op only of a region that exists
		tr.SetRegionGeometry("ghost", sqRegion(0, 0, 1, 1)),
	} {
		if !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("err = %v, want ErrUnknownRegion", err)
		}
	}
	// Non-"unknown region" failures must NOT wear the sentinel.
	if err := tr.RenameRegion("a", "b"); errors.Is(err, ErrUnknownRegion) {
		t.Errorf("collision err should not wrap ErrUnknownRegion: %v", err)
	}
	bad := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1)))
	if err := tr.SetRegionGeometry("a", bad); errors.Is(err, ErrUnknownRegion) {
		t.Errorf("bad-geometry err should not wrap ErrUnknownRegion: %v", err)
	}
}

func TestRenameRegion(t *testing.T) {
	tr := trackTiny(t)
	if err := tr.RenameRegion("a", "alpha"); err != nil {
		t.Fatal(err)
	}
	if hasRegion(tr, "a") || !hasRegion(tr, "alpha") {
		t.Error("rename did not take")
	}
	if err := tr.View((*Image).Validate); err != nil {
		t.Fatalf("image invalid after rename: %v", err)
	}
	// No-op rename.
	gen := tr.Store().Generation()
	if err := tr.RenameRegion("alpha", "alpha"); err != nil {
		t.Errorf("self-rename should be a no-op: %v", err)
	}
	if tr.Store().Generation() != gen {
		t.Error("self-rename moved the generation")
	}
	// Collision and missing source.
	if err := tr.RenameRegion("alpha", "b"); !errors.Is(err, ErrDuplicateRegion) {
		t.Errorf("rename onto existing id: err = %v, want ErrDuplicateRegion", err)
	}
	if err := tr.RenameRegion("ghost", "x"); err == nil {
		t.Error("renaming a missing region should fail")
	}
	if err := tr.RenameRegion("alpha", ""); err == nil {
		t.Error("empty new id should fail")
	}
}

func TestSetRegionGeometry(t *testing.T) {
	tr := trackTiny(t)
	if err := tr.SetRegionGeometry("a", sqRegion(100, 100, 101, 101)); err != nil {
		t.Fatal(err)
	}
	var box geom.Rect
	tr.View(func(img *Image) error {
		box = img.FindRegion("a").Geometry().BoundingBox()
		return nil
	})
	if box != (geom.Rect{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}) {
		t.Errorf("geometry not replaced: %v", box)
	}
	if err := tr.SetRegionGeometry("ghost", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("missing region should fail")
	}
	bad := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1)))
	if err := tr.SetRegionGeometry("a", bad); err == nil {
		t.Error("invalid geometry should fail")
	}
}
