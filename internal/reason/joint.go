package reason

import (
	"fmt"
	"sync"

	"cardirect/internal/calculus"
	"cardirect/internal/core"
	"cardirect/internal/topo"
)

// TopoConstraint asserts an RCC-8 topological relation set between two
// named region variables of a directional network: X Rels Y.
type TopoConstraint struct {
	X, Y string
	Rels topo.RCC8Set
}

// withBRelations is the set of directional relations whose tile set
// includes B — every relation a primary can have to a reference whose
// bounding box it reaches into.
var (
	withBOnce      sync.Once
	withBRelations core.RelationSet
)

func relationsWithB() core.RelationSet {
	withBOnce.Do(func() {
		for r := core.Relation(1); r <= core.RelationMask; r++ {
			if r.IsValid() && r.Has(core.TileB) {
				withBRelations.Add(r)
			}
		}
	})
	return withBRelations
}

// dirFromTopo returns the directional relations compatible with a
// topological base relation t between a and b:
//
//   - EQ, TPP, NTPP: a lies inside b, hence inside mbb(b) — dir(a,b) = B.
//   - PO, TPPi, NTPPi: a shares interior with b ⊆ mbb(b), so a has material
//     in the B tile (possibly among others).
//   - DC, EC: no information — a disjoint region can poke anywhere.
func dirFromTopo(t topo.RCC8) core.RelationSet {
	switch t {
	case topo.EQ, topo.TPP, topo.NTPP:
		return core.NewRelationSet(core.B)
	case topo.PO, topo.TPPi, topo.NTPPi:
		return relationsWithB()
	default:
		return core.Universe()
	}
}

// topoFromDir returns the topological relations compatible with a definite
// directional relation r between a and b:
//
//   - r = B alone says nothing: a inside mbb(b) can equal, contain, overlap
//     or avoid b.
//   - B among other tiles: a has material outside mbb(b) ⊇ b, so a is not
//     contained in b and not equal to it.
//   - no B tile: a has no interior material inside mbb(b), which rules out
//     any shared interior with b and any containment either way; only DC
//     and EC (boundary contact where b touches its own bounding box)
//     remain.
func topoFromDir(r core.Relation) topo.RCC8Set {
	switch {
	case r == core.B:
		return topo.RCC8All
	case r.Has(core.TileB):
		return topo.RCC8Of(topo.DC, topo.EC, topo.PO, topo.TPPi, topo.NTPPi)
	default:
		return topo.RCC8Of(topo.DC, topo.EC)
	}
}

// RefineJoint runs the combined directional+topological closure in the
// style of Li & Cohn's joint consistency theory (PAPERS.md): RCC-8 path
// consistency over the topological constraints, the directional Refine
// closure, and the bidirectional coupling rules above (containment forces
// dir = B; absence of the B tile forbids shared interiors) — iterated to a
// fixpoint. It prunes the directional network in place, like Refine, and
// returns false when any constraint empties: the network pair is then
// certainly jointly unsatisfiable, including cases each closure accepts
// alone. Like Refine it is a sound filter, not a complete joint decision
// procedure. Topology constraints over unknown variables are an error.
func (n *Network) RefineJoint(topoCons []TopoConstraint) (bool, error) {
	nv := len(n.names)
	tn := calculus.NewNet[topo.RCC8](nv)
	for _, tc := range topoCons {
		if tc.Rels.IsEmpty() {
			return false, fmt.Errorf("reason: empty topology constraint between %q and %q", tc.X, tc.Y)
		}
		i, okx := n.idx[tc.X]
		j, oky := n.idx[tc.Y]
		if !okx || !oky {
			return false, fmt.Errorf("reason: unknown variable in topology constraint (%q, %q)", tc.X, tc.Y)
		}
		if i == j {
			if !tc.Rels.Has(topo.EQ) {
				return false, nil // a region relates to itself by EQ only
			}
			continue
		}
		tn.Set(i, j, tc.Rels)
		if tn.Get(i, j).IsEmpty() {
			return false, nil
		}
	}
	for {
		if !tn.Propagate() {
			return false, nil
		}
		if !n.Refine() {
			return false, nil
		}
		changed := false
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				if i == j {
					continue
				}
				key := [2]int{i, j}
				ts := tn.Get(i, j)
				// Topology → direction: only when topology actually
				// constrains the pair (a full set never prunes).
				if ts != topo.RCC8All {
					var dirAllowed core.RelationSet
					for _, t := range ts.Rels() {
						dirAllowed = dirAllowed.Union(dirFromTopo(t))
					}
					cur, ok := n.cons[key]
					if !ok {
						cur = core.Universe()
					}
					pruned := cur.Intersect(dirAllowed)
					if !pruned.Equal(cur) {
						n.cons[key] = pruned
						changed = true
						if pruned.IsEmpty() {
							return false, nil
						}
					}
				}
				// Direction → topology.
				if rs, ok := n.cons[key]; ok && !rs.Equal(core.Universe()) {
					var topoAllowed topo.RCC8Set
					for _, r := range rs.Relations() {
						topoAllowed |= topoFromDir(r)
						if topoAllowed == topo.RCC8All {
							break
						}
					}
					if nts := ts & topoAllowed; nts != ts {
						tn.Set(i, j, nts)
						changed = true
						if nts == 0 {
							return false, nil
						}
					}
				}
			}
		}
		if !changed {
			return true, nil
		}
	}
}
