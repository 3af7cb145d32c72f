// Package calculus is the one implementation of a binary qualitative
// calculus over at most 16 jointly exhaustive, pairwise disjoint base
// relations: relation sets as bitmasks, their converse and composition, and
// constraint networks closed under path consistency. Allen's interval
// algebra (internal/reason, the per-axis projection of a cardinal direction
// network) and RCC-8 (internal/topo, the topological side of the joint
// check) are its two instances.
//
// A calculus is data: the converse of each base relation and the
// composition of each base pair, handed to New once. A base-relation type
// names its Algebra, so Set[B] finds the tables from its type alone and
// stays a plain uint16 — typed constants such as reason.AllenAll still work
// on an aliased instantiation.
package calculus

import (
	"math/bits"
	"strings"
)

// maxBase is the largest number of base relations a calculus may have.
const maxBase = 16

// Algebra holds one calculus's tables, indexed by base relation.
type Algebra struct {
	all      uint16
	identity uint16
	converse [maxBase]uint8
	comp     [maxBase][maxBase]uint16
}

// Base is a base-relation type: a small index whose String is its
// conventional name and whose Algebra holds the calculus's tables.
type Base interface {
	~uint8
	String() string
	Algebra() *Algebra
}

// New builds the algebra of the n base relations 0..n-1 (n ≤ maxBase) from
// their converses and pairwise compositions; identity is the relation every
// element has to itself, the diagonal of a network.
func New[B Base](n int, identity B, converse func(B) B, compose func(r1, r2 B) Set[B]) *Algebra {
	a := &Algebra{all: 1<<n - 1, identity: 1 << identity}
	for r1 := 0; r1 < n; r1++ {
		a.converse[r1] = uint8(converse(B(r1)))
		for r2 := 0; r2 < n; r2++ {
			a.comp[r1][r2] = uint16(compose(B(r1), B(r2)))
		}
	}
	return a
}

// compose is the union of the base-pair compositions of s1 and s2.
func (a *Algebra) compose(s1, s2 uint16) uint16 {
	var out uint16
	for m1 := s1; m1 != 0; m1 &= m1 - 1 {
		row := &a.comp[bits.TrailingZeros16(m1)]
		for m2 := s2; m2 != 0; m2 &= m2 - 1 {
			out |= row[bits.TrailingZeros16(m2)]
		}
	}
	return out
}

// conv is the set of converses of the members of s.
func (a *Algebra) conv(s uint16) uint16 {
	var out uint16
	for m := s; m != 0; m &= m - 1 {
		out |= 1 << a.converse[bits.TrailingZeros16(m)]
	}
	return out
}

func algebraOf[B Base]() *Algebra {
	var b B
	return b.Algebra()
}

// Set is a set of base relations — a general, possibly disjunctive relation
// of the calculus — as a bitmask: bit r set means B(r) is possible.
type Set[B Base] uint16

// Of builds a set from base relations.
func Of[B Base](rs ...B) Set[B] {
	var s Set[B]
	for _, r := range rs {
		s |= 1 << r
	}
	return s
}

// Has reports whether r is in the set.
func (s Set[B]) Has(r B) bool { return s&(1<<r) != 0 }

// IsEmpty reports whether the set has no base relations.
func (s Set[B]) IsEmpty() bool { return s == 0 }

// Len returns the number of base relations in the set.
func (s Set[B]) Len() int { return bits.OnesCount16(uint16(s)) }

// Rels returns the members in ascending order.
func (s Set[B]) Rels() []B {
	out := make([]B, 0, s.Len())
	for m := uint16(s); m != 0; m &= m - 1 {
		out = append(out, B(bits.TrailingZeros16(m)))
	}
	return out
}

// Converse returns the set of converses.
func (s Set[B]) Converse() Set[B] { return Set[B](algebraOf[B]().conv(uint16(s))) }

// Compose returns s ∘ t: the union of the compositions of every base pair.
func (s Set[B]) Compose(t Set[B]) Set[B] {
	return Set[B](algebraOf[B]().compose(uint16(s), uint16(t)))
}

// String renders the set as a | -separated list of base relation names, ⊥
// for the empty set and ⊤ for the universal one.
func (s Set[B]) String() string {
	switch uint16(s) {
	case 0:
		return "⊥"
	case algebraOf[B]().all:
		return "⊤"
	}
	parts := make([]string, 0, s.Len())
	for _, r := range s.Rels() {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, "|")
}

// Net is a constraint network of the calculus over n variables: Get(i, j)
// is the set allowed between i and j. The diagonal holds the identity and
// Set keeps the matrix converse-consistent.
type Net[B Base] struct {
	n   int
	rel []Set[B] // n×n, row-major
}

// NewNet returns the unconstrained network over n variables.
func NewNet[B Base](n int) *Net[B] {
	a := algebraOf[B]()
	net := &Net[B]{n: n, rel: make([]Set[B], n*n)}
	for i := range net.rel {
		net.rel[i] = Set[B](a.all)
	}
	for i := 0; i < n; i++ {
		net.rel[i*n+i] = Set[B](a.identity)
	}
	return net
}

// Len returns the number of variables.
func (net *Net[B]) Len() int { return net.n }

// Clone returns an independent copy.
func (net *Net[B]) Clone() *Net[B] {
	return &Net[B]{n: net.n, rel: append([]Set[B](nil), net.rel...)}
}

// Get returns the current relation set between i and j.
func (net *Net[B]) Get(i, j int) Set[B] { return net.rel[i*net.n+j] }

// Set restricts the relation between i and j to s, and the converse edge to
// the converse set.
func (net *Net[B]) Set(i, j int, s Set[B]) {
	net.rel[i*net.n+j] &= s
	net.rel[j*net.n+i] &= s.Converse()
}

// Propagate runs path consistency to a fixpoint; it returns false when some
// edge becomes empty — the network is then certainly inconsistent. It is a
// sound filter, not a complete decision procedure for arbitrary disjunctive
// networks.
func (net *Net[B]) Propagate() bool {
	a := algebraOf[B]()
	n := net.n
	rel := net.rel
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rij := uint16(rel[i*n+j])
				for k := 0; k < n; k++ {
					if k == i || k == j {
						continue
					}
					nij := rij & a.compose(uint16(rel[i*n+k]), uint16(rel[k*n+j]))
					if nij != rij {
						rij = nij
						changed = true
					}
					if rij == 0 {
						return false
					}
				}
				rel[i*n+j] = Set[B](rij)
				rel[j*n+i] = Set[B](a.conv(rij))
			}
		}
	}
	return true
}
