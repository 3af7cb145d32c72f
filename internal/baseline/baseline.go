// Package baseline implements the rectangle model the paper positions
// itself against in §1–§2, in the style of Papadias et al. [13]: both
// regions replaced by their minimum bounding boxes, the resulting relation
// the set of tiles of mbb(b)'s grid that mbb(a) overlaps. It is cheap (O(k)
// for the bounding box scan, O(1) after that) but loses information; the
// expressiveness experiment (E14) measures how often it, and the
// centroid-cone point model of internal/experiments, disagree with the exact
// tile relation of the paper's model.
package baseline

import (
	"fmt"
	"math"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// MBB computes the tile relation between the bounding-box approximations:
// the tiles of mbb(b)'s grid that mbb(a) overlaps with positive area. It is
// the relation the exact model would compute for the primary region
// "filled up" to its bounding box, and is an upper approximation: the exact
// relation's tiles are always a subset of the MBB relation's tiles.
func MBB(a, b geom.Region) (core.Relation, error) {
	g, err := core.NewGrid(b.BoundingBox())
	if err != nil {
		return 0, err
	}
	ba := a.BoundingBox()
	if ba.IsEmpty() {
		return 0, fmt.Errorf("baseline: primary region has empty bounding box")
	}
	var rel core.Relation
	colLo := [3]float64{math.Inf(-1), g.M1, g.M2}
	colHi := [3]float64{g.M1, g.M2, math.Inf(1)}
	rowLo := [3]float64{math.Inf(-1), g.L1, g.L2}
	rowHi := [3]float64{g.L1, g.L2, math.Inf(1)}
	for c := 0; c < 3; c++ {
		if math.Min(colHi[c], ba.MaxX) <= math.Max(colLo[c], ba.MinX) {
			continue
		}
		for r := 0; r < 3; r++ {
			if math.Min(rowHi[r], ba.MaxY) <= math.Max(rowLo[r], ba.MinY) {
				continue
			}
			rel = rel.With(core.TileAt(c, r))
		}
	}
	if !rel.IsValid() {
		return 0, fmt.Errorf("baseline: degenerate primary bounding box %v", ba)
	}
	return rel, nil
}

// Agreement classifies how a coarse model's answer relates to the exact tile
// relation computed by the paper's model.
type Agreement uint8

// Agreement levels, from exact match to contradiction.
const (
	AgreeExact      Agreement = iota // same tile set
	AgreeSubsumed                    // coarse relation's tiles ⊇ exact tiles (information loss only)
	AgreeContradict                  // coarse relation asserts tiles the exact relation excludes, or misses tiles it has
)

// String names the agreement level.
func (a Agreement) String() string {
	switch a {
	case AgreeExact:
		return "exact"
	case AgreeSubsumed:
		return "subsumed"
	default:
		return "contradict"
	}
}

// CompareMBB measures an MBB-model answer against the exact relation.
func CompareMBB(mbbRel, exact core.Relation) Agreement {
	if mbbRel == exact {
		return AgreeExact
	}
	if exact.Intersect(mbbRel) == exact {
		return AgreeSubsumed
	}
	return AgreeContradict
}
