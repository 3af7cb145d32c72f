package topo

import (
	"math/rand"
	"testing"

	"cardirect/internal/calculus"
)

func TestRCC8SetBasics(t *testing.T) {
	s := RCC8Of(DC, TPP, NTPPi)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, r := range []RCC8{DC, TPP, NTPPi} {
		if !s.Has(r) {
			t.Errorf("missing %v", r)
		}
	}
	if s.Has(EQ) || s.Has(PO) {
		t.Error("spurious members")
	}
	if got := s.String(); got != "DC|TPP|NTPPi" {
		t.Errorf("String = %q", got)
	}
	back, err := ParseRCC8Set(s.String())
	if err != nil || back != s {
		t.Errorf("Parse round-trip: %v, %v", back, err)
	}
	if star, err := ParseRCC8Set("*"); err != nil || star != RCC8All {
		t.Errorf("Parse(*) = %v, %v", star, err)
	}
	if _, err := ParseRCC8Set("BOGUS"); err == nil {
		t.Error("Parse(BOGUS) succeeded")
	}
	if got := s.Converse(); got != RCC8Of(DC, TPPi, NTPP) {
		t.Errorf("Converse = %v", got)
	}
}

// TestRCC8ComposeIdentity: EQ is the identity of composition on both sides.
func TestRCC8ComposeIdentity(t *testing.T) {
	for r := DC; r <= NTPPi; r++ {
		if got := ComposeRCC8(EQ, r); got != RCC8Of(r) {
			t.Errorf("EQ∘%v = %v", r, got)
		}
		if got := ComposeRCC8(r, EQ); got != RCC8Of(r) {
			t.Errorf("%v∘EQ = %v", r, got)
		}
	}
}

// TestRCC8ComposeConverseLaw checks (R∘S)˘ = S˘∘R˘ over every base pair —
// a strong structural invariant that catches most transcription mistakes in
// the table.
func TestRCC8ComposeConverseLaw(t *testing.T) {
	for r1 := DC; r1 <= NTPPi; r1++ {
		for r2 := DC; r2 <= NTPPi; r2++ {
			lhs := ComposeRCC8(r1, r2).Converse()
			rhs := ComposeRCC8(r2.Converse(), r1.Converse())
			if lhs != rhs {
				t.Errorf("(%v∘%v)˘ = %v, want %v", r1, r2, lhs, rhs)
			}
		}
	}
}

// TestRCC8ComposeSound checks the table against concrete geometry: for
// random box triples, Classify(a,b) ∘ Classify(b,c) must contain
// Classify(a,c). This catches missing entries (which would make the joint
// consistency filter unsound); extra entries only weaken pruning.
func TestRCC8ComposeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randBox := func() [4]float64 {
		// Snap to a small integer lattice so EQ/TPP/EC configurations occur.
		x1 := float64(rng.Intn(5))
		y1 := float64(rng.Intn(5))
		return [4]float64{x1, y1, x1 + float64(1+rng.Intn(4)), y1 + float64(1+rng.Intn(4))}
	}
	for trial := 0; trial < 3000; trial++ {
		ba, bb, bc := randBox(), randBox(), randBox()
		a := bx(ba[0], ba[1], ba[2], ba[3])
		b := bx(bb[0], bb[1], bb[2], bb[3])
		c := bx(bc[0], bc[1], bc[2], bc[3])
		rab := Classify(a, b, 0)
		rbc := Classify(b, c, 0)
		rac := Classify(a, c, 0)
		if !ComposeRCC8(rab, rbc).Has(rac) {
			t.Fatalf("trial %d: %v∘%v = %v misses observed %v (a=%v b=%v c=%v)",
				trial, rab, rbc, ComposeRCC8(rab, rbc), rac, ba, bb, bc)
		}
	}
}

// TestRCC8NetPropagate: the NTPP chain a⊂b⊂c forces a NTPP c; adding
// a DC c on top is inconsistent and Propagate detects it.
func TestRCC8NetPropagate(t *testing.T) {
	net := calculus.NewNet[RCC8](3)
	net.Set(0, 1, RCC8Of(NTPP))
	net.Set(1, 2, RCC8Of(NTPP))
	if !net.Propagate() {
		t.Fatal("consistent chain rejected")
	}
	if got := net.Get(0, 2); got != RCC8Of(NTPP) {
		t.Errorf("entailed (a,c) = %v, want NTPP", got)
	}
	if got := net.Get(2, 0); got != RCC8Of(NTPPi) {
		t.Errorf("entailed (c,a) = %v, want NTPPi", got)
	}

	bad := calculus.NewNet[RCC8](3)
	bad.Set(0, 1, RCC8Of(NTPP))
	bad.Set(1, 2, RCC8Of(NTPP))
	bad.Set(0, 2, RCC8Of(DC))
	if bad.Propagate() {
		t.Error("inconsistent chain accepted")
	}
}
