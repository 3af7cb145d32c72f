package config

import (
	"math"
	"strings"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// tinyImage builds a two-region configuration for roundtrip tests.
func tinyImage() *Image {
	img := &Image{Name: "test", File: "map.png"}
	a := Region{ID: "a", Name: "Alpha", Color: "blue"}
	a.SetGeometry(geom.Rgn(geom.Poly(
		geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(0, 0),
	)))
	b := Region{ID: "b", Name: "Beta", Color: "red"}
	b.SetGeometry(geom.Rgn(geom.Poly(
		geom.Pt(3, 4), geom.Pt(5, 4), geom.Pt(5, 2), geom.Pt(3, 2),
	)))
	img.Regions = append(img.Regions, a, b)
	return img
}

func TestXMLRoundtrip(t *testing.T) {
	img := tinyImage()
	if err := img.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	data, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<?xml") {
		t.Error("missing XML header")
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "test" || got.File != "map.png" {
		t.Errorf("image attrs lost: %+v", got)
	}
	if len(got.Regions) != 2 || len(got.Relations) != 2 {
		t.Fatalf("regions/relations = %d/%d", len(got.Regions), len(got.Relations))
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("roundtripped image invalid: %v", err)
	}
	// Geometry survives bit-exact for these coordinates.
	ga := got.FindRegion("a").Geometry()
	if ga.Area() != 1 {
		t.Errorf("region a area = %v", ga.Area())
	}
	rel, ok := got.RelationBetween("a", "b")
	if !ok {
		t.Fatal("relation a→b missing")
	}
	if rel.Type != "SW" {
		t.Errorf("a vs b = %q, want SW", rel.Type)
	}
	m, err := ParsePct(rel.Pct)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Get(core.TileSW)-100) > 1e-9 {
		t.Errorf("pct SW = %v, want 100", m.Get(core.TileSW))
	}
}

func TestComputeRelationsQualitativeOnly(t *testing.T) {
	img := tinyImage()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	for _, r := range img.Relations {
		if r.Pct != "" {
			t.Errorf("unexpected pct attribute: %q", r.Pct)
		}
		if _, err := core.ParseRelation(r.Type); err != nil {
			t.Errorf("unparsable relation %q", r.Type)
		}
	}
	// n regions produce n(n−1) ordered pairs.
	if len(img.Relations) != 2 {
		t.Errorf("relations = %d, want 2", len(img.Relations))
	}
}

func TestValidateRules(t *testing.T) {
	// Empty image.
	if err := (&Image{}).Validate(); err == nil {
		t.Error("image without regions should fail (DTD: Region+)")
	}
	// Duplicate ids.
	img := tinyImage()
	img.Regions[1].ID = "a"
	if err := img.Validate(); err == nil {
		t.Error("duplicate region ids should fail")
	}
	// Too few edges.
	img2 := tinyImage()
	img2.Regions[0].Polygons[0].Edges = img2.Regions[0].Polygons[0].Edges[:2]
	if err := img2.Validate(); err == nil {
		t.Error("2-edge polygon should fail (DTD: Edge,Edge,Edge,Edge*)")
	}
	// Dangling relation reference.
	img3 := tinyImage()
	img3.Relations = []Relation{{Type: "S", Primary: "a", Reference: "nope"}}
	if err := img3.Validate(); err == nil {
		t.Error("dangling IDREF should fail")
	}
	// Bad relation type.
	img4 := tinyImage()
	img4.Relations = []Relation{{Type: "S:X", Primary: "a", Reference: "b"}}
	if err := img4.Validate(); err == nil {
		t.Error("bad relation type should fail")
	}
	// Self-intersecting polygon.
	img5 := tinyImage()
	img5.Regions[0].Polygons[0].Edges = []Edge{{0, 0}, {2, 2}, {2, 0}, {0, 2}}
	if err := img5.Validate(); err == nil {
		t.Error("bowtie polygon should fail")
	}
	// Finite vertices, overflowing area (the XML-load path of the ring
	// geom's Validate refuses).
	img7 := tinyImage()
	img7.Regions[0].Polygons[0].Edges = []Edge{{-1e200, 1e200}, {1e200, 1e200}, {1e200, -1e200}, {-1e200, -1e200}}
	if err := img7.Validate(); err == nil {
		t.Error("polygon with an overflowing area should fail")
	}
	// Region without polygons.
	img6 := tinyImage()
	img6.Regions[0].Polygons = nil
	if err := img6.Validate(); err == nil {
		t.Error("region without polygons should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not xml at all <<<")); err == nil {
		t.Error("garbage input should fail to parse")
	}
}

func TestParsePctErrors(t *testing.T) {
	if _, err := ParsePct("1;2;3"); err == nil {
		t.Error("short pct should fail")
	}
	if _, err := ParsePct("a;0;0;0;0;0;0;0;0"); err == nil {
		t.Error("non-numeric pct should fail")
	}
}

func TestLoadHandwrittenDocument(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>
<Image name="demo" file="demo.png">
  <Region id="r1" name="One" color="blue">
    <Polygon id="p1">
      <Edge x="0" y="2"/><Edge x="2" y="2"/><Edge x="2" y="0"/><Edge x="0" y="0"/>
    </Polygon>
  </Region>
  <Region id="r2" color="red">
    <Polygon id="p2">
      <Edge x="5" y="1"/><Edge x="6" y="1"/><Edge x="6" y="0"/>
    </Polygon>
  </Region>
  <Relation type="E" primary="r2" reference="r1"/>
</Image>`
	img, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("handwritten doc invalid: %v", err)
	}
	// The materialised relation matches a fresh computation.
	r2 := img.FindRegion("r2").Geometry()
	r1 := img.FindRegion("r1").Geometry()
	got, err := core.ComputeCDR(r2, r1)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "E" {
		t.Errorf("r2 vs r1 = %v, want E", got)
	}
}

func TestFindRegion(t *testing.T) {
	img := tinyImage()
	if img.FindRegion("a") == nil || img.FindRegion("b") == nil {
		t.Error("FindRegion misses declared regions")
	}
	if img.FindRegion("zzz") != nil {
		t.Error("FindRegion invents regions")
	}
	ids := img.RegionIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("RegionIDs = %v", ids)
	}
}
