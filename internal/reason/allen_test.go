package reason

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cardirect/internal/calculus"
)

func TestClassifyIntervalsAllThirteen(t *testing.T) {
	for r := AllenRel(0); r < NumAllen; r++ {
		a := allenRepr[r][0]
		b := allenRepr[r][1]
		if got := ClassifyIntervals(a.lo, a.hi, b.lo, b.hi); got != r {
			t.Errorf("representative of %v classified as %v", r, got)
		}
	}
}

func TestAllenConverse(t *testing.T) {
	for r := AllenRel(0); r < NumAllen; r++ {
		// Converse is an involution.
		if r.Converse().Converse() != r {
			t.Errorf("converse not involutive for %v", r)
		}
		// Classifying the swapped representatives gives the converse.
		a := allenRepr[r][0]
		b := allenRepr[r][1]
		if got := ClassifyIntervals(b.lo, b.hi, a.lo, a.hi); got != r.Converse() {
			t.Errorf("swap of %v classified as %v, want %v", r, got, r.Converse())
		}
	}
	if AllenEquals.Converse() != AllenEquals {
		t.Error("equals must be self-converse")
	}
}

func TestAllenSetOps(t *testing.T) {
	s := AllenOf(AllenBefore, AllenMeets)
	if !s.Has(AllenBefore) || s.Has(AllenAfter) {
		t.Error("membership wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if AllenAll.Len() != 13 {
		t.Errorf("|⊤| = %d", AllenAll.Len())
	}
	if got := s.Converse(); !got.Has(AllenAfter) || !got.Has(AllenMetBy) || got.Len() != 2 {
		t.Errorf("Converse = %v", got)
	}
	if s.String() != "before|meets" {
		t.Errorf("String = %q", s.String())
	}
	if AllenSet(0).String() != "⊥" || AllenAll.String() != "⊤" {
		t.Error("special strings wrong")
	}
}

func TestCompositionIdentities(t *testing.T) {
	// equals is the identity of composition.
	for r := AllenRel(0); r < NumAllen; r++ {
		if got := Compose(AllenEquals, r); got != AllenOf(r) {
			t.Errorf("equals∘%v = %v", r, got)
		}
		if got := Compose(r, AllenEquals); got != AllenOf(r) {
			t.Errorf("%v∘equals = %v", r, got)
		}
	}
	// Classic entries.
	if got := Compose(AllenBefore, AllenBefore); got != AllenOf(AllenBefore) {
		t.Errorf("before∘before = %v", got)
	}
	if got := Compose(AllenMeets, AllenMeets); got != AllenOf(AllenBefore) {
		t.Errorf("meets∘meets = %v", got)
	}
	if got := Compose(AllenDuring, AllenDuring); got != AllenOf(AllenDuring) {
		t.Errorf("during∘during = %v", got)
	}
	if got := Compose(AllenBefore, AllenAfter); got != AllenAll {
		t.Errorf("before∘after = %v, want ⊤", got)
	}
	if got := Compose(AllenOverlaps, AllenOverlaps); got != AllenOf(AllenBefore, AllenMeets, AllenOverlaps) {
		t.Errorf("overlaps∘overlaps = %v", got)
	}
	// during∘before = before.
	if got := Compose(AllenDuring, AllenBefore); got != AllenOf(AllenBefore) {
		t.Errorf("during∘before = %v", got)
	}
}

// Property: (r1 ∘ r2)⁻¹ = r2⁻¹ ∘ r1⁻¹.
func TestCompositionConverseProperty(t *testing.T) {
	for r1 := AllenRel(0); r1 < NumAllen; r1++ {
		for r2 := AllenRel(0); r2 < NumAllen; r2++ {
			lhs := Compose(r1, r2).Converse()
			rhs := Compose(r2.Converse(), r1.Converse())
			if lhs != rhs {
				t.Errorf("(%v∘%v)⁻¹ = %v, want %v", r1, r2, lhs, rhs)
			}
		}
	}
}

// Property: composition is exhaustive — no empty entry, and every entry is a
// superset of what random concrete triples realise.
func TestCompositionSoundOnRandomIntervals(t *testing.T) {
	for r1 := AllenRel(0); r1 < NumAllen; r1++ {
		for r2 := AllenRel(0); r2 < NumAllen; r2++ {
			if allenCompTable[r1][r2] == 0 {
				t.Errorf("empty composition %v∘%v", r1, r2)
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		v := make([]float64, 6)
		for i := range v {
			v[i] = float64(rng.Intn(8))
		}
		a1, a2 := ordered(v[0], v[1])
		b1, b2 := ordered(v[2], v[3])
		c1, c2 := ordered(v[4], v[5])
		rab := ClassifyIntervals(a1, a2, b1, b2)
		rbc := ClassifyIntervals(b1, b2, c1, c2)
		rac := ClassifyIntervals(a1, a2, c1, c2)
		if !Compose(rab, rbc).Has(rac) {
			t.Fatalf("trial %d: %v∘%v misses %v", trial, rab, rbc, rac)
		}
	}
}

func ordered(a, b float64) (float64, float64) {
	if a >= b {
		b = a + 1
	}
	return a, b
}

// TestComposeSets composes relation sets the way the solver does, through
// path consistency: x {b,m} y and y {b} z narrow x ⊤ z to {b,m}∘{b} = {b},
// and an empty edge composes to ⊥, which Propagate reports as inconsistent.
func TestComposeSets(t *testing.T) {
	net := calculus.NewNet[AllenRel](3)
	net.Set(0, 1, AllenOf(AllenBefore, AllenMeets))
	net.Set(1, 2, AllenOf(AllenBefore))
	if !net.Propagate() {
		t.Fatal("a before/meets chain is consistent")
	}
	if got := net.Get(0, 2); got != AllenOf(AllenBefore) {
		t.Errorf("{b,m}∘{b} = %v", got)
	}
	net = calculus.NewNet[AllenRel](3)
	net.Set(0, 1, AllenSet(0))
	if net.Propagate() {
		t.Error("⊥∘⊤ propagates as consistent")
	}
}

// Property: ClassifyIntervals is total and consistent with the declared
// endpoint conditions.
func TestClassifyIntervalsProperty(t *testing.T) {
	f := func(a1r, a2r, b1r, b2r uint8) bool {
		a1 := float64(a1r % 10)
		a2 := a1 + 1 + float64(a2r%5)
		b1 := float64(b1r % 10)
		b2 := b1 + 1 + float64(b2r%5)
		r := ClassifyIntervals(a1, a2, b1, b2)
		conv := ClassifyIntervals(b1, b2, a1, a2)
		return conv == r.Converse()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
