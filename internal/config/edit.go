package config

import (
	"errors"
	"fmt"
	"sort"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// ErrUnknownRegion is returned (wrapped, with the offending id) by the edit
// methods when the addressed region does not exist, so callers maintaining
// derived state — relation stores, spatial indexes — can branch on
// errors.Is instead of parsing messages. It wraps core.ErrUnknownRegion, so
// a single errors.Is(err, core.ErrUnknownRegion) test covers both the
// configuration layer and the relation store beneath it.
var ErrUnknownRegion = fmt.Errorf("config: unknown region: %w", core.ErrUnknownRegion)

// ErrDuplicateRegion is returned (wrapped, with the offending id) by
// AddRegion and RenameRegion when the requested id is already taken —
// the conflict case HTTP servers map to 409.
var ErrDuplicateRegion = errors.New("config: duplicate region id")

// AddRegion appends a new region with the given geometry. The id must be
// unique and non-empty; the geometry must validate. Materialised relations
// are left untouched (they no longer cover all pairs — call
// ComputeRelations to refresh); watchers are notified.
func (img *Image) AddRegion(id, name, color string, g geom.Region) error {
	if id == "" {
		return fmt.Errorf("config: empty region id")
	}
	if img.FindRegion(id) != nil {
		return fmt.Errorf("config: region %q: %w", id, ErrDuplicateRegion)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("config: region %q: %w", id, err)
	}
	r := Region{ID: id, Name: name, Color: color}
	r.SetGeometry(g)
	img.Regions = append(img.Regions, r)
	for _, w := range img.watchers {
		w.RegionAdded(id, g)
	}
	return nil
}

// RemoveRegion deletes the region with the given id and every materialised
// relation mentioning it, notifying watchers. A missing region yields a
// wrapped ErrUnknownRegion.
func (img *Image) RemoveRegion(id string) error {
	idx := -1
	for i := range img.Regions {
		if img.Regions[i].ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("config: region %q: %w", id, ErrUnknownRegion)
	}
	img.Regions = append(img.Regions[:idx], img.Regions[idx+1:]...)
	kept := img.Relations[:0]
	for _, rel := range img.Relations {
		if rel.Primary != id && rel.Reference != id {
			kept = append(kept, rel)
		}
	}
	img.Relations = kept
	for _, w := range img.watchers {
		w.RegionRemoved(id)
	}
	return nil
}

// RenameRegion changes a region's id, updating materialised relations and
// notifying watchers. The new id must be unique and non-empty; a missing
// region yields a wrapped ErrUnknownRegion.
func (img *Image) RenameRegion(oldID, newID string) error {
	if newID == "" {
		return fmt.Errorf("config: empty new region id")
	}
	r := img.FindRegion(oldID)
	if r == nil {
		return fmt.Errorf("config: region %q: %w", oldID, ErrUnknownRegion)
	}
	if oldID == newID {
		return nil
	}
	if img.FindRegion(newID) != nil {
		return fmt.Errorf("config: region %q: %w", newID, ErrDuplicateRegion)
	}
	r.ID = newID
	for i := range r.Polygons {
		r.Polygons[i].ID = fmt.Sprintf("%s-p%d", newID, i)
	}
	for i := range img.Relations {
		if img.Relations[i].Primary == oldID {
			img.Relations[i].Primary = newID
		}
		if img.Relations[i].Reference == oldID {
			img.Relations[i].Reference = newID
		}
	}
	for _, w := range img.watchers {
		w.RegionRenamed(oldID, newID)
	}
	return nil
}

// SetRegionGeometry replaces a region's polygons and drops the materialised
// relations that mention it (they are stale now), notifying watchers. A
// missing region yields a wrapped ErrUnknownRegion.
func (img *Image) SetRegionGeometry(id string, g geom.Region) error {
	r := img.FindRegion(id)
	if r == nil {
		return fmt.Errorf("config: region %q: %w", id, ErrUnknownRegion)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("config: region %q: %w", id, err)
	}
	r.SetGeometry(g)
	kept := img.Relations[:0]
	for _, rel := range img.Relations {
		if rel.Primary != id && rel.Reference != id {
			kept = append(kept, rel)
		}
	}
	img.Relations = kept
	for _, w := range img.watchers {
		w.RegionGeometryChanged(id, g)
	}
	return nil
}

// Summary aggregates document statistics for describe-style output.
type Summary struct {
	Regions      int
	Polygons     int
	Edges        int
	Relations    int
	Colors       []string // distinct colors, sorted
	TotalArea    float64
	BoundingBox  geom.Rect
	MultiPolygon int // regions with more than one polygon (REG* composites)
}

// Summarize computes the document statistics.
func (img *Image) Summarize() Summary {
	s := Summary{Relations: len(img.Relations), BoundingBox: geom.EmptyRect()}
	colors := map[string]bool{}
	for i := range img.Regions {
		r := &img.Regions[i]
		g := r.Geometry()
		s.Regions++
		s.Polygons += len(r.Polygons)
		s.Edges += g.NumEdges()
		s.TotalArea += g.Area()
		s.BoundingBox = s.BoundingBox.Union(g.BoundingBox())
		if len(r.Polygons) > 1 {
			s.MultiPolygon++
		}
		if r.Color != "" {
			colors[r.Color] = true
		}
	}
	for c := range colors {
		s.Colors = append(s.Colors, c)
	}
	sort.Strings(s.Colors)
	return s
}
