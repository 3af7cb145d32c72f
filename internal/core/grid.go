package core

import (
	"fmt"

	"cardirect/internal/geom"
)

// Grid is the 3×3 tiling of the plane induced by a reference region's
// minimum bounding box: the four lines x = m1, x = m2, y = l1, y = l2 of the
// paper. Tiles are closed — each includes the parts of the lines forming it
// — so points on a line belong to the tiles on both sides; classification
// methods therefore come in two flavours: ClassifyPoint for points known to
// be strictly inside a tile, and ClassifySegment which resolves on-line
// segments by the side the region's interior lies on.
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
// 2 (east). Coordinates exactly on a line are assigned to the middle column;
// use ClassifySegment when the ambiguity matters.
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

// ClassifySegment returns the tile of a segment that is known not to cross
// any grid line (the invariant Compute-CDR establishes by splitting edges at
// line crossings). The segment's extent decides the tile, per axis: reaching
// west of x = m1 puts it in the west column, east of x = m2 in the east
// column, else the middle — the extent, not the midpoint, because the
// midpoint of a piece 1 ulp long rounds onto the line while the piece,
// however small, still belongs to the far side. When the segment lies
// exactly on a grid line — where the closed tiles overlap — the tile on the
// side of the polygon's interior is chosen: with the canonical clockwise
// (y-up) orientation, to the right of the directed segment, (dy, −dx). That
// keeps the algorithm exact for regions that touch mbb(b) lines: a region
// lying entirely west of b and sharing the line x = m1 is W of b, not B:W.
func (g Grid) ClassifySegment(s geom.Segment) Tile {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y

	west, east := s.A.X, s.B.X
	if west > east {
		west, east = east, west
	}
	col := 1
	if west < g.M1 {
		col = 0
	} else if east > g.M2 {
		col = 2
	}
	if west == east && dy != 0 {
		if west == g.M1 {
			// Segment lies on the west line. Interior x-direction is
			// sign(dy): dy > 0 (northbound) puts the interior east of it.
			col = 0
			if dy > 0 {
				col = 1
			}
		} else if west == g.M2 {
			col = 1
			if dy > 0 {
				col = 2
			}
		}
	}

	south, north := s.A.Y, s.B.Y
	if south > north {
		south, north = north, south
	}
	row := 1
	if south < g.L1 {
		row = 0
	} else if north > g.L2 {
		row = 2
	}
	if south == north && dx != 0 {
		if south == g.L1 {
			// Segment lies on the south line. Interior y-direction is
			// sign(−dx): dx > 0 (eastbound) puts the interior south of it.
			row = 1
			if dx > 0 {
				row = 0
			}
		} else if south == g.L2 {
			row = 2
			if dx > 0 {
				row = 1
			}
		}
	}

	return TileAt(col, row)
}

// SplitEdge cuts the edge AB at its proper crossings with the four grid
// lines (Definition 3 of the paper: touching at an endpoint or lying on a
// line is not a crossing) and appends the resulting sub-segments to dst,
// returning the extended slice. Every appended segment lies in exactly one
// tile; their union is AB; crossing coordinates are snapped exactly onto the
// crossed line. At most four cuts can occur, so at most five segments are
// appended.
func (g Grid) SplitEdge(e geom.Segment, dst []geom.Segment) []geom.Segment {
	type cut struct {
		t    float64
		vert bool    // crossed line is vertical
		c    float64 // line coordinate
	}
	var cuts [4]cut
	n := 0
	add := func(t float64, vert bool, c float64) {
		cuts[n] = cut{t, vert, c}
		n++
	}
	if t, ok := e.CrossVertical(g.M1); ok {
		add(t, true, g.M1)
	}
	if t, ok := e.CrossVertical(g.M2); ok {
		add(t, true, g.M2)
	}
	if t, ok := e.CrossHorizontal(g.L1); ok {
		add(t, false, g.L1)
	}
	if t, ok := e.CrossHorizontal(g.L2); ok {
		add(t, false, g.L2)
	}
	if n == 0 {
		return append(dst, e)
	}
	// Insertion sort of up to four cuts by parameter.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && cuts[j].t < cuts[j-1].t; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	// Materialise cut points, coalescing a vertical/horizontal cut pair with
	// (nearly) equal parameters: that is an edge passing exactly through a
	// grid corner, whose two float parameters can disagree in the last ulp.
	// Without coalescing the sliver between the two snap points would be
	// classified into a diagonal tile the edge only touches at a point.
	const cornerEps = 1e-12
	pts := make([]geom.Point, 0, 4)
	for i := 0; i < n; i++ {
		if i+1 < n && cuts[i].vert != cuts[i+1].vert && cuts[i+1].t-cuts[i].t <= cornerEps {
			// Exact grid corner: both coordinates snap to their lines.
			x, y := cuts[i].c, cuts[i+1].c
			if !cuts[i].vert {
				x, y = y, x
			}
			pts = append(pts, geom.Point{X: x, Y: y})
			i++
			continue
		}
		if cuts[i].vert {
			pts = append(pts, e.AtOnVertical(cuts[i].t, cuts[i].c))
		} else {
			pts = append(pts, e.AtOnHorizontal(cuts[i].t, cuts[i].c))
		}
	}
	prev := e.A
	for _, p := range pts {
		if !p.Eq(prev) {
			dst = append(dst, geom.Segment{A: prev, B: p})
			prev = p
		}
	}
	if !prev.Eq(e.B) {
		dst = append(dst, geom.Segment{A: prev, B: e.B})
	}
	return dst
}
