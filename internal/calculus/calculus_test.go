package calculus_test

import (
	"testing"

	"cardirect/internal/calculus"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
)

// TestCalculusAllocs: set converse in both calculi, and one path-consistency
// pass (the composition of sets) over a preallocated 16-variable network, run
// on the bitmasks alone — no per-call slice of base relations.
func TestCalculusAllocs(t *testing.T) {
	a := reason.AllenOf(reason.AllenBefore, reason.AllenMeets, reason.AllenDuring)
	r := topo.RCC8Of(topo.DC, topo.TPP, topo.NTPPi)
	net := calculus.NewNet[reason.AllenRel](16)
	for i := 0; i+1 < 16; i++ {
		net.Set(i, i+1, reason.AllenOf(reason.AllenBefore, reason.AllenMeets))
	}
	if !net.Propagate() {
		t.Fatal("a before/meets chain is consistent")
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Allen converse", func() { _ = a.Converse() }},
		{"RCC-8 converse", func() { _ = r.Converse() }},
		{"Propagate, 16 variables", func() { net.Propagate() }},
	} {
		if got := testing.AllocsPerRun(20, tc.f); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
