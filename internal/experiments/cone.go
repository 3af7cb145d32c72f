package experiments

import (
	"fmt"
	"math"

	"cardirect/internal/baseline"
	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// Direction is the answer of E14's point-based comparator, the centroid-cone
// model in the style of Frank [3,4]: one of the eight cardinal cones, or
// Same when the two centroids coincide too closely to call. No program a
// user runs needs it, so it lives beside the experiment that measures it;
// baseline keeps the MBB model the facade exports.
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
	if int(d) < len(dirTiles) {
		return dirTiles[d]
	}
	return core.TileB
}

var dirTiles = [...]core.Tile{core.TileB, core.TileN, core.TileNE, core.TileE,
	core.TileSE, core.TileS, core.TileSW, core.TileW, core.TileNW}

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
	// Quantise into 8 sectors of 45°, counter-clockwise from the one
	// centred on E.
	sector := int(math.Floor((ang + math.Pi/8) / (math.Pi / 4)))
	return [8]Direction{DirE, DirNE, DirN, DirNW, DirW, DirSW, DirS, DirSE}[((sector%8)+8)%8]
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

// CompareCone measures a cone-model answer against the exact relation: it is
// exact when the exact relation is the single matching tile, subsumed when
// the matching tile is one of the exact relation's tiles, and contradictory
// otherwise.
func CompareCone(d Direction, exact core.Relation) baseline.Agreement {
	t := d.Tile()
	if exact == core.Rel(t) {
		return baseline.AgreeExact
	}
	if exact.Has(t) {
		return baseline.AgreeSubsumed
	}
	return baseline.AgreeContradict
}
