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

// AxisInfoOf returns the axis information for an Allen base relation.
func AxisInfoOf(r AllenRel) AxisInfo { return axisInfoTable[r] }

// colsMask returns the bitmask of grid columns used by the relation's tiles.
func colsMask(r core.Relation) uint8 {
	var m uint8
	for _, t := range r.Tiles() {
		m |= 1 << t.Col()
	}
	return m
}

// rowsMask returns the bitmask of grid rows used by the relation's tiles.
func rowsMask(r core.Relation) uint8 {
	var m uint8
	for _, t := range r.Tiles() {
		m |= 1 << t.Row()
	}
	return m
}

// PairConsistent reports whether the tile set R is realisable by a REG*
// primary region whose bounding-box projections relate to the reference's by
// ax on the x-axis and ay on the y-axis: R's columns must be allowed by ax,
// R's rows by ay, and the mandatory extreme strips must be occupied. For
// REG* these conditions are also sufficient — disconnected blobs realise any
// such tile set.
func PairConsistent(r core.Relation, ax, ay AllenRel) bool {
	if !r.IsValid() {
		return false
	}
	cm := colsMask(r)
	rm := rowsMask(r)
	xi := axisInfoTable[ax]
	yi := axisInfoTable[ay]
	if cm&^xi.Allowed != 0 || rm&^yi.Allowed != 0 {
		return false
	}
	return cm&(1<<xi.MandLo) != 0 && cm&(1<<xi.MandHi) != 0 &&
		rm&(1<<yi.MandLo) != 0 && rm&(1<<yi.MandHi) != 0
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

func getTables() *pairTables {
	tablesOnce.Do(func() {
		for ax := AllenRel(0); ax < NumAllen; ax++ {
			for ay := AllenRel(0); ay < NumAllen; ay++ {
				for r := core.Relation(1); r <= core.RelationMask; r++ {
					if PairConsistent(r, ax, ay) {
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
