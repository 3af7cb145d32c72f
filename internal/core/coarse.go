package core

import "cardirect/internal/geom"

// DefaultCoarseGrid is the default coarse-index resolution per axis.
const DefaultCoarseGrid = 256

// cellSpan is one region's bounding box quantised to coarse cells: the
// box covers cell columns [x0,x1] and rows [y0,y1]. Eight bytes per
// region, so a 10^5-region world's whole summary is cache-resident.
type cellSpan struct {
	x0, x1, y0, y1 uint16
}

// CoarseIndex is the coarse-tile relation summary of a world: every
// region's bounding box quantised onto an S×S cell grid over the world
// box.
//
// The cell map v ↦ floor((v−min)/cellSize) is monotone non-decreasing even
// under floating-point rounding (subtraction and division are monotone,
// floor is monotone), which is the only property the O(1) pair rules need:
// span(a).x1 < span(b).x0 implies a.MaxX < b.MinX STRICTLY (equal
// coordinates land in equal cells), and span(a).x0 > span(b).x0 implies
// a.MinX > b.MinX. The rules are therefore exact when they fire and
// merely inconclusive when boxes share cells — never wrong.
//
// Immutable after construction and safe for concurrent use.
type CoarseIndex struct {
	box    geom.Rect
	cells  int
	cw, ch float64
	spans  []cellSpan
}

// NewCoarseIndex summarises the given bounding boxes on a cells×cells grid
// over their union. cells ≤ 0 means DefaultCoarseGrid; it is capped at
// 65535 so a span fits uint16.
func NewCoarseIndex(boxes []geom.Rect, cells int) *CoarseIndex {
	if cells <= 0 {
		cells = DefaultCoarseGrid
	}
	if cells > 65535 {
		cells = 65535
	}
	world := geom.EmptyRect()
	for _, b := range boxes {
		world = world.Union(b)
	}
	ci := &CoarseIndex{
		box:   world,
		cells: cells,
		spans: make([]cellSpan, len(boxes)),
	}
	if len(boxes) > 0 {
		ci.cw = world.Width() / float64(cells)
		ci.ch = world.Height() / float64(cells)
	}
	for i, b := range boxes {
		ci.spans[i] = cellSpan{
			x0: ci.cellX(b.MinX), x1: ci.cellX(b.MaxX),
			y0: ci.cellY(b.MinY), y1: ci.cellY(b.MaxY),
		}
	}
	return ci
}

func (ci *CoarseIndex) cellX(v float64) uint16 {
	if ci.cw <= 0 {
		return 0
	}
	c := int((v - ci.box.MinX) / ci.cw)
	if c < 0 {
		c = 0
	}
	if c >= ci.cells {
		c = ci.cells - 1
	}
	return uint16(c)
}

func (ci *CoarseIndex) cellY(v float64) uint16 {
	if ci.ch <= 0 {
		return 0
	}
	c := int((v - ci.box.MinY) / ci.ch)
	if c < 0 {
		c = 0
	}
	if c >= ci.cells {
		c = ci.cells - 1
	}
	return uint16(c)
}

// coarsePairLut maps the eight monotone cell-span comparisons of a pair —
// packed four per axis as (a.hi < b.lo) | (a.lo > b.hi)<<1 |
// (a.lo > b.lo)<<2 | (a.hi < b.hi)<<3, x in the low nibble, y in the high —
// to the pair's single-tile relation, or 0 (never a valid relation) when
// either axis is undecided. Precomputing the full 256-entry table lets the
// huge-world row sweep decide a pair with flag materialisations plus one
// load and a single almost-always-taken branch instead of six
// data-dependent ones — the coarse tier decides >99% of pairs, so that
// branch predicts.
var coarsePairLut [256]Relation

// b2i materialises a comparison flag without a branch (the compiler emits
// a conditional set for this shape) — the coarsePairLut index builder.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// coarseAxisCode resolves one axis nibble to a column/row index by the
// monotone cell rules, in this order: a's span before b's (0), after it
// (2), strictly inside it (1), else undecided (-1). When it decides both
// axes, the pair's relation is the exact kernel's single tile.
func coarseAxisCode(bits int) int {
	switch {
	case bits&1 != 0:
		return 0
	case bits&2 != 0:
		return 2
	case bits&4 != 0 && bits&8 != 0:
		return 1
	}
	return -1
}

func init() {
	for xb := 0; xb < 16; xb++ {
		for yb := 0; yb < 16; yb++ {
			col, row := coarseAxisCode(xb), coarseAxisCode(yb)
			if col >= 0 && row >= 0 {
				coarsePairLut[xb|yb<<4] = Rel(TileAt(col, row))
			}
		}
	}
}
