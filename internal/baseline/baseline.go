// Package baseline implements the coarser direction models the paper
// positions itself against in §1–§2: models that approximate one or both
// regions by points or minimum bounding boxes instead of using the primary
// region's exact shape.
//
//   - CentroidCone — the cone-based point model in the style of Frank [3,4]:
//     the direction between the two centroids, quantised into eight 45°
//     cones plus a neutral "same position" case.
//   - MBBModel — the rectangle model in the style of Papadias et al. [13]:
//     both regions replaced by their bounding boxes; the resulting relation
//     is the set of tiles of mbb(b)'s grid that mbb(a) overlaps.
//
// These models are cheap (O(k) for the bounding box scan, O(1) after that)
// but lose information; the expressiveness experiment (E14) measures how
// often they disagree with the exact tile relation of the paper's model.
package baseline

import (
	"fmt"
	"math"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// Direction is the result of a point-based direction model: one of the
// eight cardinal cones, or Same when the two points (or boxes) coincide too
// closely to call.
type Direction uint8

// The eight cone directions plus the neutral case.
const (
	DirSame Direction = iota
	DirN
	DirNE
	DirE
	DirSE
	DirS
	DirSW
	DirW
	DirNW
)

var dirNames = [...]string{"same", "N", "NE", "E", "SE", "S", "SW", "W", "NW"}

// String returns the direction's conventional name.
func (d Direction) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Tile maps a cone direction to the corresponding grid tile (Same maps to
// the B tile). It is the bridge used when comparing point models with the
// exact tile model.
func (d Direction) Tile() core.Tile {
	switch d {
	case DirN:
		return core.TileN
	case DirNE:
		return core.TileNE
	case DirE:
		return core.TileE
	case DirSE:
		return core.TileSE
	case DirS:
		return core.TileS
	case DirSW:
		return core.TileSW
	case DirW:
		return core.TileW
	case DirNW:
		return core.TileNW
	default:
		return core.TileB
	}
}

// CentroidCone returns the cone direction of the primary region a seen from
// the reference region b, comparing area centroids: the angle from b's
// centroid to a's centroid is quantised into eight 45° cones centred on the
// axes (N covers [67.5°, 112.5°) and so on). Centroids closer than eps are
// reported as Same.
func CentroidCone(a, b geom.Region, eps float64) Direction {
	ca := regionCentroid(a)
	cb := regionCentroid(b)
	dx := ca.X - cb.X
	dy := ca.Y - cb.Y
	if math.Hypot(dx, dy) <= eps {
		return DirSame
	}
	ang := math.Atan2(dy, dx) // (−π, π], 0 = east
	// Quantise into 8 sectors of 45°, centred on E.
	sector := int(math.Floor((ang + math.Pi/8) / (math.Pi / 4)))
	switch ((sector % 8) + 8) % 8 {
	case 0:
		return DirE
	case 1:
		return DirNE
	case 2:
		return DirN
	case 3:
		return DirNW
	case 4:
		return DirW
	case 5:
		return DirSW
	case 6:
		return DirS
	default:
		return DirSE
	}
}

// regionCentroid returns the area-weighted centroid of a region.
func regionCentroid(r geom.Region) geom.Point {
	var cx, cy, total float64
	for _, p := range r {
		a := p.Area()
		c := p.Centroid()
		cx += c.X * a
		cy += c.Y * a
		total += a
	}
	if total == 0 {
		// Degenerate: fall back to the box centre.
		return r.BoundingBox().Center()
	}
	return geom.Pt(cx/total, cy/total)
}

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

// CompareCone measures a cone-model answer against the exact relation: it is
// exact when the exact relation is the single matching tile, subsumed when
// the matching tile is one of the exact relation's tiles, and contradictory
// otherwise.
func CompareCone(d Direction, exact core.Relation) Agreement {
	t := d.Tile()
	if exact == core.Rel(t) {
		return AgreeExact
	}
	if exact.Has(t) {
		return AgreeSubsumed
	}
	return AgreeContradict
}
