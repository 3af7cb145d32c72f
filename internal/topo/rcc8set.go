package topo

import (
	"fmt"
	"strings"

	"cardirect/internal/calculus"
)

// RCC8Set is a set of RCC-8 base relations (a general, possibly disjunctive
// topological relation) as a bitmask — bit r set means base relation RCC8(r)
// is possible. It is the topological counterpart of core.RelationSet, and
// the substrate of the joint directional+topological consistency check (Li
// & Cohn's combined theory): path consistency over a calculus.Net[RCC8]
// prunes the topological side while the cardinal-direction closure prunes
// the directional side, with the coupling rules in internal/reason
// translating between them.
type RCC8Set = calculus.Set[RCC8]

// RCC8All is the universal topological relation.
const RCC8All RCC8Set = 1<<8 - 1

// RCC8Of builds a set from base relations.
func RCC8Of(rs ...RCC8) RCC8Set { return calculus.Of(rs...) }

// rcc8Algebra is RCC-8 as a calculus: the converses and the composition
// table below.
var rcc8Algebra = calculus.New(8, EQ, RCC8.Converse, ComposeRCC8)

// Algebra returns RCC-8's calculus, the one RCC8Set and the topological
// network of the joint check run.
func (RCC8) Algebra() *calculus.Algebra { return rcc8Algebra }

// ParseRCC8Set parses a | (or comma) separated list of RCC-8 mnemonics,
// case-insensitively; "*" or "⊤" denote the universal relation.
func ParseRCC8Set(str string) (RCC8Set, error) {
	str = strings.TrimSpace(str)
	if str == "*" || str == "⊤" {
		return RCC8All, nil
	}
	var s RCC8Set
	for _, part := range strings.FieldsFunc(str, func(r rune) bool { return r == '|' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		found := false
		for r := DC; r <= NTPPi; r++ {
			if strings.EqualFold(part, r.String()) {
				s |= 1 << r
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("topo: unknown RCC8 relation %q", part)
		}
	}
	if s == 0 {
		return 0, fmt.Errorf("topo: empty RCC8 relation set %q", str)
	}
	return s, nil
}

// rcc8CompTable[r1][r2] is the composition r1 ∘ r2: the possible relations
// between a and c given a r1 b and b r2 c. This is the classic RCC-8
// composition table (Randell, Cui & Cohn); the tests check the converse law
// ((R∘S)˘ = S˘∘R˘), EQ as identity, and soundness against topo.Classify on
// concrete region triples.
var rcc8CompTable = [8][8]RCC8Set{
	DC: {
		DC:    RCC8All,
		EC:    RCC8Of(DC, EC, PO, TPP, NTPP),
		PO:    RCC8Of(DC, EC, PO, TPP, NTPP),
		EQ:    RCC8Of(DC),
		TPP:   RCC8Of(DC, EC, PO, TPP, NTPP),
		NTPP:  RCC8Of(DC, EC, PO, TPP, NTPP),
		TPPi:  RCC8Of(DC),
		NTPPi: RCC8Of(DC),
	},
	EC: {
		DC:    RCC8Of(DC, EC, PO, TPPi, NTPPi),
		EC:    RCC8Of(DC, EC, PO, TPP, TPPi, EQ),
		PO:    RCC8Of(DC, EC, PO, TPP, NTPP),
		EQ:    RCC8Of(EC),
		TPP:   RCC8Of(EC, PO, TPP, NTPP),
		NTPP:  RCC8Of(PO, TPP, NTPP),
		TPPi:  RCC8Of(DC, EC),
		NTPPi: RCC8Of(DC),
	},
	PO: {
		DC:    RCC8Of(DC, EC, PO, TPPi, NTPPi),
		EC:    RCC8Of(DC, EC, PO, TPPi, NTPPi),
		PO:    RCC8All,
		EQ:    RCC8Of(PO),
		TPP:   RCC8Of(PO, TPP, NTPP),
		NTPP:  RCC8Of(PO, TPP, NTPP),
		TPPi:  RCC8Of(DC, EC, PO, TPPi, NTPPi),
		NTPPi: RCC8Of(DC, EC, PO, TPPi, NTPPi),
	},
	EQ: {
		DC:    RCC8Of(DC),
		EC:    RCC8Of(EC),
		PO:    RCC8Of(PO),
		EQ:    RCC8Of(EQ),
		TPP:   RCC8Of(TPP),
		NTPP:  RCC8Of(NTPP),
		TPPi:  RCC8Of(TPPi),
		NTPPi: RCC8Of(NTPPi),
	},
	TPP: {
		DC:    RCC8Of(DC),
		EC:    RCC8Of(DC, EC),
		PO:    RCC8Of(DC, EC, PO, TPP, NTPP),
		EQ:    RCC8Of(TPP),
		TPP:   RCC8Of(TPP, NTPP),
		NTPP:  RCC8Of(NTPP),
		TPPi:  RCC8Of(DC, EC, PO, TPP, TPPi, EQ),
		NTPPi: RCC8Of(DC, EC, PO, TPPi, NTPPi),
	},
	NTPP: {
		DC:    RCC8Of(DC),
		EC:    RCC8Of(DC),
		PO:    RCC8Of(DC, EC, PO, TPP, NTPP),
		EQ:    RCC8Of(NTPP),
		TPP:   RCC8Of(NTPP),
		NTPP:  RCC8Of(NTPP),
		TPPi:  RCC8Of(DC, EC, PO, TPP, NTPP),
		NTPPi: RCC8All,
	},
	TPPi: {
		DC:    RCC8Of(DC, EC, PO, TPPi, NTPPi),
		EC:    RCC8Of(EC, PO, TPPi, NTPPi),
		PO:    RCC8Of(PO, TPPi, NTPPi),
		EQ:    RCC8Of(TPPi),
		TPP:   RCC8Of(PO, TPP, TPPi, EQ),
		NTPP:  RCC8Of(PO, TPP, NTPP),
		TPPi:  RCC8Of(TPPi, NTPPi),
		NTPPi: RCC8Of(NTPPi),
	},
	NTPPi: {
		DC:    RCC8Of(DC, EC, PO, TPPi, NTPPi),
		EC:    RCC8Of(PO, TPPi, NTPPi),
		PO:    RCC8Of(PO, TPPi, NTPPi),
		EQ:    RCC8Of(NTPPi),
		TPP:   RCC8Of(PO, TPPi, NTPPi),
		NTPP:  RCC8Of(PO, TPP, NTPP, TPPi, NTPPi, EQ),
		TPPi:  RCC8Of(NTPPi),
		NTPPi: RCC8Of(NTPPi),
	},
}

// ComposeRCC8 returns r1 ∘ r2 for base relations.
func ComposeRCC8(r1, r2 RCC8) RCC8Set { return rcc8CompTable[r1][r2] }
