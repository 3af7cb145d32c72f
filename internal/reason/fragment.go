package reason

import (
	"cardirect/internal/core"
)

// The tractable fragment: networks whose every edge carries a single
// definite relation forming a full contiguous rectangular block of tiles
// (cm × rm with both strip masks contiguous). For such relations the
// Allen-pair abstraction decomposes exactly per axis — the realisable Allen
// relations on each axis are precisely those whose occupied strips equal
// the relation's strip mask — so consistency reduces to two independent
// Allen interval networks and is decided by path consistency plus one
// backtrack-free refinement, sidestepping the exponential (relation,
// Allen-pair) product the general solver must search. This is the
// polynomial fragment in the spirit of Zhang, Liu, Li & Ying's tractability
// results for the cardinal direction calculus (PAPERS.md).

// contiguousStrips reports whether a 3-bit strip mask selects a contiguous
// run of strips ({0}, {1}, {2}, {0,1}, {1,2}, {0,1,2} — not {0,2}).
func contiguousStrips(m uint8) bool {
	switch m {
	case 1, 2, 4, 3, 6, 7:
		return true
	default:
		return false
	}
}

// rectangularBlock reports whether the relation's tiles are exactly the
// product of its column strips and row strips, both contiguous.
func rectangularBlock(r core.Relation) bool {
	cm, rm := colsMask(r), rowsMask(r)
	if !contiguousStrips(cm) || !contiguousStrips(rm) {
		return false
	}
	for c := 0; c < 3; c++ {
		if cm&(1<<c) == 0 {
			continue
		}
		for row := 0; row < 3; row++ {
			if rm&(1<<row) == 0 {
				continue
			}
			if !r.Has(core.TileAt(c, row)) {
				return false
			}
		}
	}
	return true
}

// fragmentEligible reports whether every constrained edge is a singleton
// rectangular-block relation — the precondition for the polynomial fast
// path.
func (n *Network) fragmentEligible(edges [][2]int) bool {
	for _, key := range edges {
		rs := n.cons[key]
		if rs.Len() != 1 {
			return false
		}
		if !rectangularBlock(rs.Relations()[0]) {
			return false
		}
	}
	return true
}

// axisAllenSets returns the Allen relations realising the relation's column
// mask on the x axis and row mask on the y axis. For any relation the
// realisable Allen pairs are exactly the product of these two sets
// (PairConsistent decomposes per axis).
func axisAllenSets(r core.Relation) (xs, ys AllenSet) {
	cm, rm := colsMask(r), rowsMask(r)
	for ar := AllenRel(0); ar < NumAllen; ar++ {
		info := axisInfoTable[ar]
		if cm&^info.Allowed == 0 && cm&(1<<info.MandLo) != 0 && cm&(1<<info.MandHi) != 0 {
			xs |= 1 << ar
		}
		if rm&^info.Allowed == 0 && rm&(1<<info.MandLo) != 0 && rm&(1<<info.MandHi) != 0 {
			ys |= 1 << ar
		}
	}
	return xs, ys
}

// solveFragment decides an eligible network: project every edge onto its
// per-axis Allen sets, run path consistency on both axis networks (empty ⇒
// certainly unsatisfiable, since any solution's induced Allen scenario
// would survive sound pruning), then certify satisfiability constructively
// by refining each axis to one atomic scenario and realising a witness
// through the shared occupancy check. decided=false means the fast path
// could not settle the instance within maxScenarios and the caller must
// fall back to the full solver — correctness never leans on the fragment
// theory alone.
func (n *Network) solveFragment(edges [][2]int, maxScenarios int) (w *Witness, decided bool) {
	nv := len(n.names)
	mx, my := newAxisNet(nv), newAxisNet(nv)
	rels := make(map[[2]int]core.Relation, len(edges))
	for _, key := range edges {
		r := n.cons[key].Relations()[0]
		xs, ys := axisAllenSets(r)
		if xs == 0 || ys == 0 {
			return nil, true // no axis realisation exists for this edge
		}
		mx.Set(key[0], key[1], xs)
		my.Set(key[0], key[1], ys)
		rels[key] = r
	}
	if !mx.Propagate() || !my.Propagate() {
		return nil, true // axis path consistency refutes the network
	}
	// Certify: first atomic scenario per axis. The greedy most-constrained
	// descent in scenarios rarely backtracks on these convex-strip sets;
	// the budget bounds it regardless.
	budget := newScenarioBudget(maxScenarios)
	var sx, sy *axisNet
	if err := scenarios(mx, budget, func(s *axisNet) bool { sx = s.Clone(); return true }); err != nil {
		return nil, false // budget exhausted before certification
	}
	if sx == nil {
		return nil, true // PC-consistent but no atomic scenario: unsatisfiable
	}
	if err := scenarios(my, budget, func(s *axisNet) bool { sy = s.Clone(); return true }); err != nil {
		return nil, false
	}
	if sy == nil {
		return nil, true
	}
	// Every edge's atomic (ax, ay) lies in the projected sets, and the
	// realisable pairs of a relation are exactly their product, so the
	// choices are pair-consistent by construction.
	chosen := make(map[[2]int]edgeChoice, len(edges))
	for key, r := range rels {
		ax := sx.Get(key[0], key[1]).Rels()[0]
		ay := sy.Get(key[0], key[1]).Rels()[0]
		chosen[key] = edgeChoice{rel: r, ax: ax, ay: ay}
	}
	s := &solver{n: n, chosen: chosen}
	if w := s.checkOccupancy(realize(sx), realize(sy)); w != nil {
		return w, true
	}
	// For full rectangular blocks the occupancy check cannot fail (the
	// bounding box spans exactly the mandatory strips, so every cell is
	// allowed and every tile covered) — but if it ever does, stay honest
	// and let the full solver decide.
	return nil, false
}
