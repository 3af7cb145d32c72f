// Package core implements the cardinal direction relation model of
// Skiadopoulos et al. (EDBT 2004) and the paper's two linear-time
// algorithms:
//
//   - ComputeCDR — Algorithm Compute-CDR (Fig. 5 of the paper): the purely
//     qualitative cardinal direction relation between two REG* regions.
//   - ComputeCDRPct — Algorithm Compute-CDR% (Fig. 10): the quantitative
//     relation with percentages, computed through the trapezoid expressions
//     E_l and E'_m without polygon clipping.
//
// Each algorithm has one implementation, the struct-of-arrays kernel over a
// Prepared region (relateFull, relatePctFullInto): the one-shot functions
// run it on a primary prepared into pooled scratch, and the batch engines,
// the relation store and the huge-world tier run it behind their MBB fast
// paths. transcription_test.go keeps the literal Fig. 5 / Fig. 10
// transcription as the reference every stage is held to bit for bit.
//
// The model: the minimum bounding box of the reference region b divides the
// plane into nine closed tiles B, S, SW, W, NW, N, NE, E, SE. A basic
// cardinal direction relation is a non-empty subset of tiles — the tiles the
// primary region a occupies — written in the canonical order
// B:S:SW:W:NW:N:NE:E:SE (e.g. "B:W:NW"). There are exactly 511 basic
// relations (the set D* of the paper); sets of basic relations (elements of
// 2^D*) express indefinite information and are provided by RelationSet.
package core

import (
	"fmt"
	"strings"
)

// Tile identifies one of the nine tiles induced by the reference region's
// minimum bounding box.
type Tile uint8

// The nine tiles, in the paper's canonical writing order.
const (
	TileB    Tile = iota // bounding box tile
	TileS                // south
	TileSW               // southwest
	TileW                // west
	TileNW               // northwest
	TileN                // north
	TileNE               // northeast
	TileE                // east
	TileSE               // southeast
	NumTiles = 9
)

var tileNames = [NumTiles]string{"B", "S", "SW", "W", "NW", "N", "NE", "E", "SE"}

// String returns the tile's name as written in relations ("B", "S", "SW", …).
func (t Tile) String() string {
	if int(t) < len(tileNames) {
		return tileNames[t]
	}
	return fmt.Sprintf("Tile(%d)", uint8(t))
}

// Col returns the tile's column in the 3×3 grid: 0 = west of mbb(b),
// 1 = within the x-span of mbb(b), 2 = east of it.
func (t Tile) Col() int { return tileCols[t] }

// Row returns the tile's row in the 3×3 grid: 0 = south of mbb(b),
// 1 = within the y-span of mbb(b), 2 = north of it.
func (t Tile) Row() int { return tileRows[t] }

var tileCols = [NumTiles]int{1, 1, 0, 0, 0, 1, 2, 2, 2}
var tileRows = [NumTiles]int{1, 0, 0, 1, 2, 2, 2, 1, 0}

// TileAt returns the tile at grid position (col, row); it is the inverse of
// the Col/Row accessors.
func TileAt(col, row int) Tile { return tileGrid[row][col] }

// tileGrid[row][col]; row 0 is the south row.
var tileGrid = [3][3]Tile{
	{TileSW, TileS, TileSE},
	{TileW, TileB, TileE},
	{TileNW, TileN, TileNE},
}

// Tiles lists all nine tiles in canonical order.
func Tiles() [NumTiles]Tile {
	return [NumTiles]Tile{TileB, TileS, TileSW, TileW, TileNW, TileN, TileNE, TileE, TileSE}
}

// Relation is a basic cardinal direction relation: a set of tiles encoded as
// a 9-bit mask (bit i set means tile Tile(i) belongs to the relation). The
// zero value is the empty relation, which is not a member of D* but serves
// as the identity for Union — the paper's Compute-CDR also starts from "the
// empty relation" and tile-unions into it.
type Relation uint16

// RelationMask covers all nine tile bits; Relation values above it are invalid.
const RelationMask Relation = 1<<NumTiles - 1

// NumRelations is the number of basic relations in D* (non-empty tile sets).
const NumRelations = int(RelationMask) // 511

// Rel builds a relation from tiles. Rel() is the empty relation.
func Rel(tiles ...Tile) Relation {
	var r Relation
	for _, t := range tiles {
		r |= 1 << t
	}
	return r
}

// Convenience singletons for the nine single-tile relations.
const (
	B  = Relation(1 << TileB)
	S  = Relation(1 << TileS)
	SW = Relation(1 << TileSW)
	W  = Relation(1 << TileW)
	NW = Relation(1 << TileNW)
	N  = Relation(1 << TileN)
	NE = Relation(1 << TileNE)
	E  = Relation(1 << TileE)
	SE = Relation(1 << TileSE)
)

// IsEmpty reports whether the relation has no tiles.
func (r Relation) IsEmpty() bool { return r&RelationMask == 0 }

// IsValid reports whether r is a basic relation of D*: non-empty and within
// the nine tile bits.
func (r Relation) IsValid() bool { return r != 0 && r&^RelationMask == 0 }

// Has reports whether tile t belongs to the relation.
func (r Relation) Has(t Tile) bool { return r&(1<<t) != 0 }

// With returns the relation extended with tile t.
func (r Relation) With(t Tile) Relation { return r | 1<<t }

// Union returns the tile-union of r and the given relations (Definition 2 of
// the paper).
func (r Relation) Union(rs ...Relation) Relation {
	for _, x := range rs {
		r |= x
	}
	return r & RelationMask
}

// Intersect returns the relation containing the tiles common to r and s.
func (r Relation) Intersect(s Relation) Relation { return r & s & RelationMask }

// NumTiles returns the number of tiles in the relation (k in the paper's
// R_1:⋯:R_k notation).
func (r Relation) NumTiles() int {
	n := 0
	for m := r & RelationMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// SingleTile reports whether the relation consists of exactly one tile.
func (r Relation) SingleTile() bool {
	m := r & RelationMask
	return m != 0 && m&(m-1) == 0
}

// MultiTile reports whether the relation has two or more tiles.
func (r Relation) MultiTile() bool { return r.IsValid() && !r.SingleTile() }

// Tiles returns the relation's tiles in canonical order.
func (r Relation) Tiles() []Tile {
	out := make([]Tile, 0, r.NumTiles())
	for _, t := range Tiles() {
		if r.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// String writes the relation in the paper's canonical form, e.g. "B:S:SW".
// The empty relation renders as "∅".
func (r Relation) String() string {
	if r.IsEmpty() {
		return "∅"
	}
	parts := make([]string, 0, 9)
	for _, t := range Tiles() {
		if r.Has(t) {
			parts = append(parts, t.String())
		}
	}
	return strings.Join(parts, ":")
}

// ParseRelation parses the canonical (or any order) colon-separated tile
// list, e.g. "B:S:SW" or "sw:s:b". Duplicate tiles are rejected, matching
// condition (c) of Definition 1.
func ParseRelation(s string) (Relation, error) {
	var r Relation
	if strings.TrimSpace(s) == "" {
		return 0, fmt.Errorf("core: empty relation string")
	}
	for _, part := range strings.Split(s, ":") {
		name := strings.ToUpper(strings.TrimSpace(part))
		t, ok := tileByName(name)
		if !ok {
			return 0, fmt.Errorf("core: unknown tile %q in relation %q", part, s)
		}
		if r.Has(t) {
			return 0, fmt.Errorf("core: duplicate tile %q in relation %q", part, s)
		}
		r = r.With(t)
	}
	return r, nil
}

func tileByName(name string) (Tile, bool) {
	for i, n := range tileNames {
		if n == name {
			return Tile(i), true
		}
	}
	return 0, false
}

// Matrix returns the direction-relation matrix of Goyal & Egenhofer for the
// relation: cell [row][col] is true when the corresponding tile belongs to
// the relation. Row 0 is the north row, matching the paper's layout
//
//	[ NW N NE ]
//	[ W  B  E ]
//	[ SW S SE ]
func (r Relation) Matrix() [3][3]bool {
	var m [3][3]bool
	for _, t := range r.Tiles() {
		m[2-t.Row()][t.Col()] = true
	}
	return m
}

// MatrixString renders the direction-relation matrix with the paper's ■/□
// cells, one row per line.
func (r Relation) MatrixString() string {
	m := r.Matrix()
	var sb strings.Builder
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m[i][j] {
				sb.WriteRune('■')
			} else {
				sb.WriteRune('□')
			}
		}
		if i < 2 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// AllRelations returns the 511 basic relations of D* in increasing bitmask
// order. The slice is freshly allocated.
func AllRelations() []Relation {
	out := make([]Relation, 0, NumRelations)
	for m := Relation(1); m <= RelationMask; m++ {
		out = append(out, m)
	}
	return out
}
