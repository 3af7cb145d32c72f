package reason

import (
	"sync"

	"cardirect/internal/core"
)

// AxisInfo summarises what an Allen relation between the projections of the
// primary region a and the reference region b says about a's possible grid
// columns (or rows): which of the three strips a may occupy with positive
// area, and which strips a *must* occupy — the strips adjacent to a's own
// projection extremes (a region always has material arbitrarily close to
// its infimum and supremum).
type AxisInfo struct {
	Allowed uint8 // bitmask of strips 0 (low/west/south), 1 (middle), 2 (high/east/north)
	MandLo  int   // strip containing material just above inf(a)
	MandHi  int   // strip containing material just below sup(a)
}

// axisInfoTable[r] is the AxisInfo of a primary with projection A versus a
// reference with projection B when A r B, derived from the canonical numeric
// representatives.
var axisInfoTable [NumAllen]AxisInfo

func init() {
	for r := AllenRel(0); r < NumAllen; r++ {
		a := allenRepr[r][0]
		b := allenRepr[r][1]
		var info AxisInfo
		if a.lo < b.lo {
			info.Allowed |= 1 << 0
		}
		if max(a.lo, b.lo) < min(a.hi, b.hi) {
			info.Allowed |= 1 << 1
		}
		if a.hi > b.hi {
			info.Allowed |= 1 << 2
		}
		info.MandLo = stripOfLo(a.lo, b)
		info.MandHi = stripOfHi(a.hi, b)
		axisInfoTable[r] = info
	}
}

// stripOfLo returns the strip of the reference grid that contains points
// just above v (material adjacent to the infimum).
func stripOfLo(v float64, b interval) int {
	switch {
	case v < b.lo:
		return 0
	case v < b.hi:
		return 1
	default:
		return 2
	}
}

// stripOfHi returns the strip containing points just below v.
func stripOfHi(v float64, b interval) int {
	switch {
	case v > b.hi:
		return 2
	case v > b.lo:
		return 1
	default:
		return 0
	}
}

// masks returns the bitmasks of the grid columns and rows the relation's
// tiles use.
func masks(r core.Relation) (cols, rows uint8) {
	for t := core.Tile(0); t < core.NumTiles; t++ {
		if r.Has(t) {
			cols |= 1 << t.Col()
			rows |= 1 << t.Row()
		}
	}
	return cols, rows
}

// axisConsistent reports whether strips m — a relation's columns or rows —
// are all allowed by info and hold both of its mandatory strips.
func axisConsistent(m uint8, info AxisInfo) bool {
	return m&^info.Allowed == 0 && m&(1<<info.MandLo) != 0 && m&(1<<info.MandHi) != 0
}

// pairTables holds the precomputed correspondence between Allen pairs and
// consistent tile relations, built lazily once.
type pairTables struct {
	// consistent[ax][ay] is the set of relations realisable under (ax, ay).
	consistent [NumAllen][NumAllen]core.RelationSet
	// pairs[r] lists the Allen pairs (ax*13+ay) under which relation r is
	// realisable.
	pairs [core.NumRelations + 1][]uint8
}

var (
	tablesOnce sync.Once
	tables     pairTables
)

// getTables builds the tables on first use. A tile set R is realisable by a
// REG* primary whose projections relate to the reference's by (ax, ay) when
// R's columns are allowed by ax, its rows by ay, and the mandatory extreme
// strips are occupied; disconnected blobs realise any such set. Each
// relation's columns and rows are worked out once, not once per pair.
func getTables() *pairTables {
	tablesOnce.Do(func() {
		var cols, rows [core.NumRelations + 1]uint8
		for r := core.Relation(1); r <= core.RelationMask; r++ {
			cols[r], rows[r] = masks(r)
		}
		for ax := AllenRel(0); ax < NumAllen; ax++ {
			for ay := AllenRel(0); ay < NumAllen; ay++ {
				xi, yi := axisInfoTable[ax], axisInfoTable[ay]
				for r := core.Relation(1); r <= core.RelationMask; r++ {
					if axisConsistent(cols[r], xi) && axisConsistent(rows[r], yi) {
						tables.consistent[ax][ay].Add(r)
						tables.pairs[r] = append(tables.pairs[r], uint8(ax)*NumAllen+uint8(ay))
					}
				}
			}
		}
	})
	return &tables
}

// PairsOf returns the Allen pairs (ax, ay) under which the relation is
// realisable.
func PairsOf(r core.Relation) [][2]AllenRel {
	t := getTables()
	ps := t.pairs[r]
	out := make([][2]AllenRel, len(ps))
	for i, p := range ps {
		out[i] = [2]AllenRel{AllenRel(p / NumAllen), AllenRel(p % NumAllen)}
	}
	return out
}
