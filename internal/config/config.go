// Package config implements the CARDIRECT configuration store of §4 of the
// paper: an annotated image with named, coloured regions (each a set of
// polygons), persisted in the XML format defined by the paper's DTD:
//
//	<!ELEMENT Image (Region+, Relation*)>
//	<!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
//	<!ELEMENT Region (Polygon*)>
//	<!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
//	<!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
//	<!ATTLIST Polygon id CDATA #REQUIRED>
//	<!ELEMENT Edge EMPTY>
//	<!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
//	<!ELEMENT Relation EMPTY>
//	<!ATTLIST Relation type CDATA #REQUIRED
//	          primary IDREF #REQUIRED reference IDREF #REQUIRED>
//
// The package loads and saves such documents, validates them (unique region
// ids, at least three edges per polygon as the DTD demands, IDREF
// integrity, simple positive-area polygons) and (re)computes the stored
// Relation elements with the paper's two algorithms. The percentage matrix
// is carried in an optional pct attribute — an extension the DTD's
// #IMPLIED-friendly shape allows without breaking conforming readers.
package config

import (
	"bytes"
	"cmp"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// Image is a CARDIRECT configuration: an underlying image file annotated
// with regions and (optionally materialised) pairwise relations.
type Image struct {
	XMLName   xml.Name   `xml:"Image"`
	Name      string     `xml:"name,attr,omitempty"`
	File      string     `xml:"file,attr,omitempty"`
	Regions   []Region   `xml:"Region"`
	Relations []Relation `xml:"Relation"`
}

// Region is a named, coloured REG* region given as a set of polygons.
type Region struct {
	ID       string    `xml:"id,attr"`
	Name     string    `xml:"name,attr,omitempty"`
	Color    string    `xml:"color,attr,omitempty"`
	Polygons []Polygon `xml:"Polygon"`
}

// Polygon is one simple polygon of a region, as a list of vertices (the
// DTD's Edge elements carry the vertex coordinates; consecutive vertices
// form the polygon's edges, in clockwise order as the paper prescribes).
type Polygon struct {
	ID    string `xml:"id,attr"`
	Edges []Edge `xml:"Edge"`
}

// Edge is a polygon vertex (see Polygon).
type Edge struct {
	X float64 `xml:"x,attr"`
	Y float64 `xml:"y,attr"`
}

// Relation materialises one computed direction relation between two regions.
type Relation struct {
	Type      string `xml:"type,attr"`
	Primary   string `xml:"primary,attr"`
	Reference string `xml:"reference,attr"`
	// Pct optionally carries the percentage matrix as nine
	// semicolon-separated numbers in tile order B;S;SW;W;NW;N;NE;E;SE
	// (extension attribute, absent in pure qualitative configurations).
	Pct string `xml:"pct,attr,omitempty"`
}

// Geometry converts the region's polygon list into the geometry
// representation used by the algorithms.
func (r *Region) Geometry() geom.Region {
	out := make(geom.Region, 0, len(r.Polygons))
	for _, p := range r.Polygons {
		poly := make(geom.Polygon, 0, len(p.Edges))
		for _, e := range p.Edges {
			poly = append(poly, geom.Pt(e.X, e.Y))
		}
		out = append(out, poly)
	}
	return out
}

// SetGeometry replaces the region's polygons with the given geometry,
// assigning sequential polygon ids prefixed by the region id.
func (r *Region) SetGeometry(g geom.Region) {
	r.Polygons = r.Polygons[:0]
	for i, p := range g {
		cp := Polygon{ID: fmt.Sprintf("%s-p%d", r.ID, i)}
		for _, v := range p {
			cp.Edges = append(cp.Edges, Edge{X: v.X, Y: v.Y})
		}
		r.Polygons = append(r.Polygons, cp)
	}
}

// FindRegion returns the region with the given id, or nil.
func (img *Image) FindRegion(id string) *Region {
	for i := range img.Regions {
		if img.Regions[i].ID == id {
			return &img.Regions[i]
		}
	}
	return nil
}

// RegionIDs returns all region ids in document order.
func (img *Image) RegionIDs() []string {
	out := make([]string, len(img.Regions))
	for i := range img.Regions {
		out[i] = img.Regions[i].ID
	}
	return out
}

// Validate checks the structural rules of the DTD and the geometric
// prerequisites of the algorithms: at least one region; unique region ids;
// every polygon with at least three Edge elements (the DTD's
// (Edge, Edge, Edge, Edge*)); every Relation's primary/reference referencing
// declared ids; and every polygon a valid simple positive-area ring.
func (img *Image) Validate() error {
	if len(img.Regions) == 0 {
		return fmt.Errorf("config: image has no regions (DTD requires Region+)")
	}
	seen := map[string]bool{}
	for i := range img.Regions {
		r := &img.Regions[i]
		if r.ID == "" {
			return fmt.Errorf("config: region %d has empty id", i)
		}
		if seen[r.ID] {
			return fmt.Errorf("config: duplicate region id %q", r.ID)
		}
		seen[r.ID] = true
		if len(r.Polygons) == 0 {
			return fmt.Errorf("config: region %q has no polygons", r.ID)
		}
		for j := range r.Polygons {
			if n := len(r.Polygons[j].Edges); n < 3 {
				return fmt.Errorf("config: region %q polygon %d has %d edges, DTD requires ≥3", r.ID, j, n)
			}
		}
		if err := r.Geometry().Validate(); err != nil {
			return fmt.Errorf("config: region %q: %w", r.ID, err)
		}
	}
	for i, rel := range img.Relations {
		if !seen[rel.Primary] {
			return fmt.Errorf("config: relation %d references unknown primary %q", i, rel.Primary)
		}
		if !seen[rel.Reference] {
			return fmt.Errorf("config: relation %d references unknown reference %q", i, rel.Reference)
		}
		if _, err := core.ParseRelation(rel.Type); err != nil {
			return fmt.Errorf("config: relation %d: %w", i, err)
		}
	}
	return nil
}

// ComputeRelations recomputes the materialised Relation list for every
// ordered pair of distinct regions using the batch engine (grids and edge
// tables built once per region, MBB pruning); when withPct is set it also
// runs Compute-CDR% and stores the percentage matrix in the pct attribute.
// Results are ordered (primary, reference) by region id, exactly as the
// batch engine emits them.
func (img *Image) ComputeRelations(withPct bool) error {
	regions := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		regions[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	ps, err := core.PrepareAll(regions)
	if err != nil {
		return fmt.Errorf("config: computing relations: %w", err)
	}
	opt := &core.BatchOptions{Prepared: ps}
	qual, err := core.BatchCDR(context.Background(), nil, opt)
	if err != nil {
		return fmt.Errorf("config: computing relations: %w", err)
	}
	// Both batch engines emit the same name-sorted (primary, reference)
	// order over the same prepared set, so the quantitative results zip with
	// the qualitative ones by index.
	var pcts []core.PairPercent
	if withPct {
		pct, err := core.BatchPct(context.Background(), nil, opt)
		if err != nil {
			return fmt.Errorf("config: computing percentages: %w", err)
		}
		pcts = pct.Pairs
	}
	img.Relations = img.Relations[:0]
	for i, pr := range qual.Pairs {
		entry := Relation{Type: pr.Relation.String(), Primary: pr.Primary, Reference: pr.Reference}
		if withPct {
			entry.Pct = encodePct(pcts[i].Matrix)
		}
		img.Relations = append(img.Relations, entry)
	}
	return nil
}

// RelationBetween returns the materialised relation of primary p versus
// reference q, or false when not present.
func (img *Image) RelationBetween(p, q string) (Relation, bool) {
	for _, r := range img.Relations {
		if r.Primary == p && r.Reference == q {
			return r, true
		}
	}
	return Relation{}, false
}

// encodePct serialises a percentage matrix in tile order. The shortest
// round-trippable float formatting makes ParsePct(encodePct(m)) == m
// bit-exact — the property the persistence subsystem's seeded recovery and
// FuzzParsePct rely on.
func encodePct(m core.PercentMatrix) string {
	parts := make([]string, 0, core.NumTiles)
	for _, t := range core.Tiles() {
		parts = append(parts, strconv.FormatFloat(m.Get(t), 'g', -1, 64))
	}
	return strings.Join(parts, ";")
}

// ParsePct decodes a pct attribute back into a percentage matrix.
func ParsePct(s string) (core.PercentMatrix, error) {
	var m core.PercentMatrix
	parts := strings.Split(s, ";")
	if len(parts) != core.NumTiles {
		return m, fmt.Errorf("config: pct has %d fields, want %d", len(parts), core.NumTiles)
	}
	for i, t := range core.Tiles() {
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil {
			return m, fmt.Errorf("config: pct field %d: %w", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return m, fmt.Errorf("config: pct field %d: non-finite value %q", i, parts[i])
		}
		m.Set(t, v)
	}
	return m, nil
}

// Save writes the image as indented XML with the standard header (see
// Bytes).
func (img *Image) Save(w io.Writer) error {
	data, err := img.Bytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Bytes renders the image document as encoding/xml's indented Encode writes
// it, after the standard header. Regions are emitted in sorted-id order and
// relations sorted by (primary, reference, type), so saving the same
// logical document always produces the same bytes, whatever the edit
// history. The in-memory document is not reordered.
func (img *Image) Bytes() ([]byte, error) {
	out := Image{Name: img.Name, File: img.File, Regions: slices.Clone(img.Regions), Relations: slices.Clone(img.Relations)}
	slices.SortStableFunc(out.Regions, func(x, y Region) int { return strings.Compare(x.ID, y.ID) })
	slices.SortStableFunc(out.Relations, func(x, y Relation) int {
		return cmp.Or(strings.Compare(x.Primary, y.Primary), strings.Compare(x.Reference, y.Reference), strings.Compare(x.Type, y.Type))
	})
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
