package reason

import "cardirect/internal/core"

// Inverse computes inv(R): the set of basic cardinal direction relations Q
// such that some pair of REG* regions satisfies both a R b and b Q a — the
// operation of the paper's §2 ("the inverse of a cardinal direction relation
// R … is, in general, a disjunctive cardinal direction relation").
//
// The computation enumerates the Allen pairs (ax, ay) under which R is
// realisable; for each, the converse pair (ax⁻¹, ay⁻¹) constrains b's tiles
// in a's grid, and every relation consistent with the converse pair is a
// possible inverse. For REG* regions this is exact: blob placement makes the
// x/y abstraction complete (validated against concrete polygon workloads in
// the tests).
func Inverse(r core.Relation) core.RelationSet {
	var out core.RelationSet
	if !r.IsValid() {
		return out
	}
	t := getTables()
	for _, p := range t.pairs[r] {
		ax := AllenRel(p / NumAllen)
		ay := AllenRel(p % NumAllen)
		out = out.Union(t.consistent[ax.Converse()][ay.Converse()])
	}
	return out
}

// InverseSet lifts Inverse to disjunctive relations: the union of the
// inverses of the disjuncts.
func InverseSet(s core.RelationSet) core.RelationSet {
	var out core.RelationSet
	for _, r := range s.Relations() {
		out = out.Union(Inverse(r))
	}
	return out
}
