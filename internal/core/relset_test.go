package core

import (
	"testing"
	"testing/quick"
)

func TestRelationSetBasics(t *testing.T) {
	var s RelationSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero set should be empty")
	}
	s.Add(N)
	s.Add(Rel(TileN, TileNE))
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Contains(N) || s.Contains(NE) {
		t.Error("membership wrong")
	}
	s.Add(N) // idempotent
	if s.Len() != 2 {
		t.Error("Add not idempotent")
	}
	s.Remove(N)
	if s.Contains(N) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	// Invalid relations are ignored.
	s.Add(0)
	if s.Len() != 1 || s.Contains(0) {
		t.Error("empty relation must not be addable")
	}
}

func TestRelationSetOps(t *testing.T) {
	a := NewRelationSet(N, S, E)
	b := NewRelationSet(S, E, W)
	if got := a.Union(b); got.Len() != 4 {
		t.Errorf("Union len = %d", got.Len())
	}
	if got := a.Intersect(b); got.Len() != 2 || !got.Contains(S) || !got.Contains(E) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Equal(NewRelationSet(E, N, S)) {
		t.Error("Equal should ignore insertion order")
	}
}

func TestUniverse(t *testing.T) {
	u := Universe()
	if u.Len() != 511 {
		t.Fatalf("|Universe| = %d, want 511", u.Len())
	}
	for _, r := range AllRelations() {
		if !u.Contains(r) {
			t.Errorf("Universe misses %v", r)
		}
	}
}

func TestRelationSetString(t *testing.T) {
	if got := NewRelationSet().String(); got != "{}" {
		t.Errorf("empty = %q", got)
	}
	if got := NewRelationSet(Rel(TileN, TileNE)).String(); got != "N:NE" {
		t.Errorf("singleton = %q", got)
	}
	s := NewRelationSet(N, W)
	if got := s.String(); got != "{N, W}" && got != "{W, N}" {
		t.Errorf("pair = %q", got)
	}
}

func TestParseRelationSet(t *testing.T) {
	s, err := ParseRelationSet("{N, N:NE, NW:N}")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || !s.Contains(Rel(TileNW, TileN)) {
		t.Errorf("parsed = %v", s)
	}
	single, err := ParseRelationSet("B:S")
	if err != nil || single.Len() != 1 || !single.Contains(Rel(TileB, TileS)) {
		t.Errorf("single parse = %v, %v", single, err)
	}
	empty, err := ParseRelationSet("{}")
	if err != nil || !empty.IsEmpty() {
		t.Errorf("empty parse = %v, %v", empty, err)
	}
	if _, err := ParseRelationSet("{N, X}"); err == nil {
		t.Error("bad member should be rejected")
	}
}

func TestRelationSetRoundtripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var s RelationSet
		for _, w := range raw {
			s.Add(Relation(w%uint16(RelationMask)) + 1)
		}
		got, err := ParseRelationSet(s.String())
		if err != nil {
			return false
		}
		if s.IsEmpty() {
			return got.IsEmpty()
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelationSetAlgebraProperty(t *testing.T) {
	mk := func(ws []uint16) RelationSet {
		var s RelationSet
		for _, w := range ws {
			s.Add(Relation(w%uint16(RelationMask)) + 1)
		}
		return s
	}
	f := func(aw, bw []uint16) bool {
		a, b := mk(aw), mk(bw)
		u := a.Union(b)
		i := a.Intersect(b)
		// |A∪B| + |A∩B| = |A| + |B|
		return u.Len()+i.Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
