package core

import (
	"strings"
)

// RelationSet is a set of basic relations — an element of the powerset 2^D*
// of the paper, used to represent indefinite (disjunctive) cardinal
// direction information such as a {N, W} b. It is a 512-bit set indexed by
// the Relation bitmask, so all set operations are O(1) in the number of
// member relations.
type RelationSet [8]uint64

// NewRelationSet builds a set from the given relations; invalid (empty)
// relations are ignored.
func NewRelationSet(rs ...Relation) RelationSet {
	var s RelationSet
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Add inserts a basic relation into the set. Adding an invalid relation is
// a no-op.
func (s *RelationSet) Add(r Relation) {
	if !r.IsValid() {
		return
	}
	s[r>>6] |= 1 << (r & 63)
}

// Remove deletes r from the set.
func (s *RelationSet) Remove(r Relation) {
	if !r.IsValid() {
		return
	}
	s[r>>6] &^= 1 << (r & 63)
}

// Contains reports whether r is a member of the set.
func (s RelationSet) Contains(r Relation) bool {
	if !r.IsValid() {
		return false
	}
	return s[r>>6]&(1<<(r&63)) != 0
}

// IsEmpty reports whether the set has no members.
func (s RelationSet) IsEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of member relations.
func (s RelationSet) Len() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Union returns the set union of s and u.
func (s RelationSet) Union(u RelationSet) RelationSet {
	var out RelationSet
	for i := range s {
		out[i] = s[i] | u[i]
	}
	return out
}

// Intersect returns the set intersection of s and u.
func (s RelationSet) Intersect(u RelationSet) RelationSet {
	var out RelationSet
	for i := range s {
		out[i] = s[i] & u[i]
	}
	return out
}

// Equal reports whether s and u have the same members.
func (s RelationSet) Equal(u RelationSet) bool { return s == u }

// Relations returns the members in increasing bitmask order.
func (s RelationSet) Relations() []Relation {
	out := make([]Relation, 0, s.Len())
	for r := Relation(1); r <= RelationMask; r++ {
		if s.Contains(r) {
			out = append(out, r)
		}
	}
	return out
}

// Universe returns the set of all 511 basic relations — the top element of
// 2^D*, representing complete ignorance.
func Universe() RelationSet {
	var s RelationSet
	for r := Relation(1); r <= RelationMask; r++ {
		s.Add(r)
	}
	return s
}

// String renders the set as "{R1, R2, …}" with members in canonical relation
// notation; a singleton renders without braces, matching how definite
// information is written in the paper.
func (s RelationSet) String() string {
	rs := s.Relations()
	switch len(rs) {
	case 0:
		return "{}"
	case 1:
		return rs[0].String()
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ParseRelationSet parses either a single relation ("B:S") or a braced,
// comma-separated disjunction ("{N, N:NE, NW:N}").
func ParseRelationSet(str string) (RelationSet, error) {
	var s RelationSet
	t := strings.TrimSpace(str)
	if strings.HasPrefix(t, "{") && strings.HasSuffix(t, "}") {
		inner := strings.TrimSpace(t[1 : len(t)-1])
		if inner == "" {
			return s, nil
		}
		for _, part := range strings.Split(inner, ",") {
			r, err := ParseRelation(part)
			if err != nil {
				return RelationSet{}, err
			}
			s.Add(r)
		}
		return s, nil
	}
	r, err := ParseRelation(t)
	if err != nil {
		return RelationSet{}, err
	}
	s.Add(r)
	return s, nil
}
