package reason

import (
	"slices"
	"testing"
	"time"

	"cardirect/internal/core"
)

// PairConsistent reports whether the tile set r is realisable under the
// Allen pair (ax, ay), one relation and one pair at a time: the reference
// the tables are built to match (see getTables).
func PairConsistent(r core.Relation, ax, ay AllenRel) bool {
	if !r.IsValid() {
		return false
	}
	var cm, rm uint8
	for _, t := range r.Tiles() {
		cm |= 1 << t.Col()
		rm |= 1 << t.Row()
	}
	xi := axisInfoTable[ax]
	yi := axisInfoTable[ay]
	if cm&^xi.Allowed != 0 || rm&^yi.Allowed != 0 {
		return false
	}
	return cm&(1<<xi.MandLo) != 0 && cm&(1<<xi.MandHi) != 0 &&
		rm&(1<<yi.MandLo) != 0 && rm&(1<<yi.MandHi) != 0
}

// TestTablesMatchPairConsistent: the tables equal a brute-force build from
// PairConsistent, set for set and pair list for pair list.
func TestTablesMatchPairConsistent(t *testing.T) {
	start := time.Now()
	got := getTables()
	t.Logf("tables built in %v (zero when an earlier test of the process built them)", time.Since(start))
	var want pairTables
	for ax := AllenRel(0); ax < NumAllen; ax++ {
		for ay := AllenRel(0); ay < NumAllen; ay++ {
			for r := core.Relation(1); r <= core.RelationMask; r++ {
				if PairConsistent(r, ax, ay) {
					want.consistent[ax][ay].Add(r)
					want.pairs[r] = append(want.pairs[r], uint8(ax)*NumAllen+uint8(ay))
				}
			}
		}
	}
	if got.consistent != want.consistent {
		t.Fatal("the consistent sets differ from PairConsistent's")
	}
	for r := range want.pairs {
		if !slices.Equal(got.pairs[r], want.pairs[r]) {
			t.Fatalf("relation %v: pairs %v, PairConsistent %v", core.Relation(r), got.pairs[r], want.pairs[r])
		}
	}
}
