package core

import (
	"fmt"

	"cardirect/internal/geom"
)

// Grid is the 3×3 tiling of the plane induced by a reference region's
// minimum bounding box: the four lines x = m1, x = m2, y = l1, y = l2 of the
// paper. Tiles are closed — each includes the parts of the lines forming it
// — so points on a line belong to the tiles on both sides: ClassifyPoint is
// exact only for points strictly inside a tile, and the kernels resolve
// on-line segments by the side the region's interior lies on (classifyCol,
// classifyRow).
type Grid struct {
	// M1, M2 are the west and east vertical lines (x = inf_x(b), x = sup_x(b));
	// L1, L2 are the south and north horizontal lines (y = inf_y(b), y = sup_y(b)).
	M1, M2, L1, L2 float64
}

// NewGrid builds the tile grid for a reference region's bounding box. An
// error is returned for an empty or degenerate box, for which the nine-tile
// model is not defined (regions in REG* always have boxes of positive area).
func NewGrid(box geom.Rect) (Grid, error) {
	if box.IsEmpty() {
		return Grid{}, fmt.Errorf("core: reference bounding box is empty")
	}
	if box.Width() <= 0 || box.Height() <= 0 {
		return Grid{}, fmt.Errorf("core: reference bounding box %v is degenerate", box)
	}
	return Grid{M1: box.MinX, M2: box.MaxX, L1: box.MinY, L2: box.MaxY}, nil
}

// Box returns the central (B) tile as a rectangle — mbb(b) itself.
func (g Grid) Box() geom.Rect {
	return geom.Rect{MinX: g.M1, MinY: g.L1, MaxX: g.M2, MaxY: g.L2}
}

// Col classifies an x-coordinate into grid columns 0 (west), 1 (middle) or
// 2 (east). Coordinates exactly on a line are assigned to the middle column.
func (g Grid) Col(x float64) int {
	switch {
	case x < g.M1:
		return 0
	case x > g.M2:
		return 2
	default:
		return 1
	}
}

// Row classifies a y-coordinate into grid rows 0 (south), 1 (middle) or
// 2 (north), assigning on-line coordinates to the middle row.
func (g Grid) Row(y float64) int {
	switch {
	case y < g.L1:
		return 0
	case y > g.L2:
		return 2
	default:
		return 1
	}
}

// ClassifyPoint returns the tile containing p, resolving on-line points
// toward the middle column/row. It is exact for points strictly inside a
// tile.
func (g Grid) ClassifyPoint(p geom.Point) Tile {
	return TileAt(g.Col(p.X), g.Row(p.Y))
}
