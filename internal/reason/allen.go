// Package reason implements the "handling" side of cardinal direction
// information: the inverse operation inv(R) of Skiadopoulos & Koubarakis
// (CP'02, the paper's [21]), the composition of cardinal direction relations
// ([20, 22]), and consistency checking for networks of (possibly
// disjunctive) cardinal direction constraints.
//
// The engine rests on the interval-occupancy abstraction: a configuration
// a R b is abstracted by the Allen interval relation between the x-axis
// projections of the two bounding boxes, the Allen relation between the
// y-axis projections, and the tile-occupancy set R. For the REG* regions of
// the paper, any non-empty tile set compatible with the axis constraints is
// realisable by placing disconnected blobs, which makes inverse computation
// exact and composition sound; both are cross-validated against concrete
// polygon workloads in the tests.
//
// This file implements the Allen interval algebra substrate: the 13 base
// relations, converse and a machine-generated composition table — the data
// of the calculus whose relation sets and networks internal/calculus
// implements.
package reason

import "cardirect/internal/calculus"

// AllenRel is one of the 13 base relations of Allen's interval algebra,
// describing the qualitative relation between two closed intervals with
// positive length (bounding-box projections always have positive length for
// REG* regions).
type AllenRel uint8

// The 13 Allen base relations: A <rel> B.
const (
	AllenBefore       AllenRel = iota // a2 < b1
	AllenMeets                        // a2 = b1
	AllenOverlaps                     // a1 < b1 < a2 < b2
	AllenStarts                       // a1 = b1, a2 < b2
	AllenDuring                       // b1 < a1, a2 < b2
	AllenFinishes                     // b1 < a1, a2 = b2
	AllenEquals                       // a1 = b1, a2 = b2
	AllenFinishedBy                   // a1 < b1, a2 = b2
	AllenContains                     // a1 < b1, b2 < a2
	AllenStartedBy                    // a1 = b1, b2 < a2
	AllenOverlappedBy                 // b1 < a1 < b2 < a2
	AllenMetBy                        // a1 = b2
	AllenAfter                        // a1 > b2
	NumAllen          = 13
)

var allenNames = [NumAllen]string{
	"before", "meets", "overlaps", "starts", "during", "finishes", "equals",
	"finishedBy", "contains", "startedBy", "overlappedBy", "metBy", "after",
}

// String returns the relation's conventional name.
func (r AllenRel) String() string {
	if int(r) < NumAllen {
		return allenNames[r]
	}
	return "AllenRel(?)"
}

// allenConverse[r] is the relation of B with respect to A when A r B.
var allenConverse = [NumAllen]AllenRel{
	AllenAfter, AllenMetBy, AllenOverlappedBy, AllenStartedBy, AllenContains,
	AllenFinishedBy, AllenEquals, AllenFinishes, AllenDuring, AllenStarts,
	AllenOverlaps, AllenMeets, AllenBefore,
}

// Converse returns the relation seen from the other interval.
func (r AllenRel) Converse() AllenRel { return allenConverse[r] }

// interval is a canonical numeric representative used to derive axis
// information and to classify concrete configurations.
type interval struct{ lo, hi float64 }

// allenRepr[r] is a pair (A, B) of representative intervals with A r B.
var allenRepr = [NumAllen][2]interval{
	AllenBefore:       {{0, 1}, {2, 3}},
	AllenMeets:        {{0, 1}, {1, 2}},
	AllenOverlaps:     {{0, 2}, {1, 3}},
	AllenStarts:       {{0, 1}, {0, 2}},
	AllenDuring:       {{1, 2}, {0, 3}},
	AllenFinishes:     {{1, 2}, {0, 2}},
	AllenEquals:       {{0, 1}, {0, 1}},
	AllenFinishedBy:   {{0, 2}, {1, 2}},
	AllenContains:     {{0, 3}, {1, 2}},
	AllenStartedBy:    {{0, 2}, {0, 1}},
	AllenOverlappedBy: {{1, 3}, {0, 2}},
	AllenMetBy:        {{1, 2}, {0, 1}},
	AllenAfter:        {{2, 3}, {0, 1}},
}

// ClassifyIntervals returns the Allen base relation between two intervals of
// positive length.
func ClassifyIntervals(a1, a2, b1, b2 float64) AllenRel {
	switch {
	case a2 < b1:
		return AllenBefore
	case a2 == b1:
		return AllenMeets
	case a1 > b2:
		return AllenAfter
	case a1 == b2:
		return AllenMetBy
	case a1 == b1 && a2 == b2:
		return AllenEquals
	case a1 == b1:
		if a2 < b2 {
			return AllenStarts
		}
		return AllenStartedBy
	case a2 == b2:
		if a1 > b1 {
			return AllenFinishes
		}
		return AllenFinishedBy
	case a1 < b1:
		if a2 < b2 {
			return AllenOverlaps
		}
		return AllenContains
	default: // a1 > b1
		if a2 > b2 {
			return AllenOverlappedBy
		}
		return AllenDuring
	}
}

// AllenSet is a set of Allen base relations (a general interval-algebra
// relation) as a 13-bit mask.
type AllenSet = calculus.Set[AllenRel]

// AllenAll is the universal interval relation.
const AllenAll AllenSet = 1<<NumAllen - 1

// AllenOf builds a set from base relations.
func AllenOf(rs ...AllenRel) AllenSet { return calculus.Of(rs...) }

// allenAlgebra is Allen's interval algebra as a calculus, built in init
// once the composition table is.
var allenAlgebra *calculus.Algebra

// Algebra returns Allen's interval algebra, the calculus AllenSet and the
// axis networks of the solver run.
func (AllenRel) Algebra() *calculus.Algebra { return allenAlgebra }

// allenCompTable[r1][r2] is the composition r1 ∘ r2: the set of possible
// relations between A and C given A r1 B and B r2 C. It is generated by
// exhaustive enumeration of endpoint configurations in init, which is both
// simpler and safer than transcribing the classic 13×13 table.
var allenCompTable [NumAllen][NumAllen]AllenSet

func init() {
	// Six endpoints a1<a2, b1<b2, c1<c2 drawn from {0..5} cover every
	// qualitative configuration of three intervals.
	for a1 := 0; a1 < 6; a1++ {
		for a2 := a1 + 1; a2 < 6; a2++ {
			for b1 := 0; b1 < 6; b1++ {
				for b2 := b1 + 1; b2 < 6; b2++ {
					rab := ClassifyIntervals(float64(a1), float64(a2), float64(b1), float64(b2))
					for c1 := 0; c1 < 6; c1++ {
						for c2 := c1 + 1; c2 < 6; c2++ {
							rbc := ClassifyIntervals(float64(b1), float64(b2), float64(c1), float64(c2))
							rac := ClassifyIntervals(float64(a1), float64(a2), float64(c1), float64(c2))
							allenCompTable[rab][rbc] |= 1 << rac
						}
					}
				}
			}
		}
	}
	allenAlgebra = calculus.New(NumAllen, AllenEquals, AllenRel.Converse, Compose)
}

// Compose returns r1 ∘ r2 for base relations.
func Compose(r1, r2 AllenRel) AllenSet { return allenCompTable[r1][r2] }
