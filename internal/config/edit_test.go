package config

import (
	"errors"
	"testing"

	"cardirect/internal/geom"
)

func sqRegion(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	))
}

func TestAddRegion(t *testing.T) {
	img := tinyImage()
	if err := img.AddRegion("c", "Gamma", "green", sqRegion(10, 10, 12, 12)); err != nil {
		t.Fatal(err)
	}
	if img.FindRegion("c") == nil {
		t.Fatal("added region not found")
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("image invalid after add: %v", err)
	}
	// Duplicate id.
	if err := img.AddRegion("c", "", "", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("duplicate id should fail")
	}
	// Empty id.
	if err := img.AddRegion("", "", "", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("empty id should fail")
	}
	// Invalid geometry.
	bowtie := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2)))
	if err := img.AddRegion("d", "", "", bowtie); err == nil {
		t.Error("invalid geometry should fail")
	}
}

func TestRemoveRegion(t *testing.T) {
	img := tinyImage()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	if len(img.Relations) != 2 {
		t.Fatalf("relations = %d", len(img.Relations))
	}
	if err := img.RemoveRegion("a"); err != nil {
		t.Fatalf("RemoveRegion failed for existing region: %v", err)
	}
	if img.FindRegion("a") != nil {
		t.Error("region still present after removal")
	}
	if len(img.Relations) != 0 {
		t.Errorf("stale relations kept: %v", img.Relations)
	}
	if err := img.RemoveRegion("a"); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("second removal err = %v, want ErrUnknownRegion", err)
	}
}

// TestEditUnknownRegionSentinel pins the error contract: every edit method
// addressing a missing region reports the wrapped sentinel.
func TestEditUnknownRegionSentinel(t *testing.T) {
	img := tinyImage()
	for _, err := range []error{
		img.RemoveRegion("ghost"),
		img.RenameRegion("ghost", "x"),
		img.RenameRegion("ghost", "ghost"), // a self-rename is a no-op only of a region that exists
		img.SetRegionGeometry("ghost", sqRegion(0, 0, 1, 1)),
	} {
		if !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("err = %v, want ErrUnknownRegion", err)
		}
	}
	// Non-"unknown region" failures must NOT wear the sentinel.
	if err := img.RenameRegion("a", "b"); errors.Is(err, ErrUnknownRegion) {
		t.Errorf("collision err should not wrap ErrUnknownRegion: %v", err)
	}
	bad := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1)))
	if err := img.SetRegionGeometry("a", bad); errors.Is(err, ErrUnknownRegion) {
		t.Errorf("bad-geometry err should not wrap ErrUnknownRegion: %v", err)
	}
}

func TestRenameRegion(t *testing.T) {
	img := tinyImage()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	if err := img.RenameRegion("a", "alpha"); err != nil {
		t.Fatal(err)
	}
	if img.FindRegion("a") != nil || img.FindRegion("alpha") == nil {
		t.Error("rename did not take")
	}
	for _, rel := range img.Relations {
		if rel.Primary == "a" || rel.Reference == "a" {
			t.Errorf("stale relation id: %+v", rel)
		}
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("image invalid after rename: %v", err)
	}
	// No-op rename.
	if err := img.RenameRegion("alpha", "alpha"); err != nil {
		t.Errorf("self-rename should be a no-op: %v", err)
	}
	// Collision and missing source.
	if err := img.RenameRegion("alpha", "b"); err == nil {
		t.Error("rename onto existing id should fail")
	}
	if err := img.RenameRegion("ghost", "x"); err == nil {
		t.Error("renaming a missing region should fail")
	}
	if err := img.RenameRegion("alpha", ""); err == nil {
		t.Error("empty new id should fail")
	}
}

func TestSetRegionGeometry(t *testing.T) {
	img := tinyImage()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	if err := img.SetRegionGeometry("a", sqRegion(100, 100, 101, 101)); err != nil {
		t.Fatal(err)
	}
	if len(img.Relations) != 0 {
		t.Errorf("stale relations survive geometry change: %v", img.Relations)
	}
	g := img.FindRegion("a").Geometry()
	if g.BoundingBox() != (geom.Rect{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}) {
		t.Errorf("geometry not replaced: %v", g.BoundingBox())
	}
	if err := img.SetRegionGeometry("ghost", sqRegion(0, 0, 1, 1)); err == nil {
		t.Error("missing region should fail")
	}
	bad := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 1)))
	if err := img.SetRegionGeometry("a", bad); err == nil {
		t.Error("invalid geometry should fail")
	}
}

func TestSummarize(t *testing.T) {
	img := Greece()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	s := img.Summarize()
	if s.Regions != 11 {
		t.Errorf("Regions = %d", s.Regions)
	}
	if s.Relations != 11*10 {
		t.Errorf("Relations = %d", s.Relations)
	}
	if s.MultiPolygon != 2 { // peloponnesos (2 halves) and islands (3)
		t.Errorf("MultiPolygon = %d, want 2", s.MultiPolygon)
	}
	if len(s.Colors) != 3 {
		t.Errorf("Colors = %v", s.Colors)
	}
	if s.TotalArea <= 0 || s.Edges == 0 || s.Polygons < s.Regions {
		t.Errorf("degenerate summary: %+v", s)
	}
	if s.BoundingBox.IsEmpty() {
		t.Error("empty bounding box")
	}
}
