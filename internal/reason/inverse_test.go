package reason

import (
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

func mustRel(t *testing.T, s string) core.Relation {
	t.Helper()
	r, err := core.ParseRelation(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAxisInfoSpotChecks(t *testing.T) {
	// a before b on x: a entirely west → only strip 0 allowed and mandatory.
	i := axisInfoTable[AllenBefore]
	if i.Allowed != 1<<0 || i.MandLo != 0 || i.MandHi != 0 {
		t.Errorf("before: %+v", i)
	}
	// equals: only middle strip.
	i = axisInfoTable[AllenEquals]
	if i.Allowed != 1<<1 || i.MandLo != 1 || i.MandHi != 1 {
		t.Errorf("equals: %+v", i)
	}
	// contains: all three strips allowed, extremes in west and east.
	i = axisInfoTable[AllenContains]
	if i.Allowed != 0b111 || i.MandLo != 0 || i.MandHi != 2 {
		t.Errorf("contains: %+v", i)
	}
	// overlaps: west+middle, extremes west and middle.
	i = axisInfoTable[AllenOverlaps]
	if i.Allowed != 0b011 || i.MandLo != 0 || i.MandHi != 1 {
		t.Errorf("overlaps: %+v", i)
	}
	// meets: a ends where b starts — only the west strip has positive
	// width of a.
	i = axisInfoTable[AllenMeets]
	if i.Allowed != 1<<0 || i.MandLo != 0 || i.MandHi != 0 {
		t.Errorf("meets: %+v", i)
	}
}

func TestPairConsistentExamples(t *testing.T) {
	// a S b: x within b's span, y strictly below.
	s := core.S
	if !PairConsistent(s, AllenDuring, AllenBefore) {
		t.Error("S should be consistent with (during, before)")
	}
	if !PairConsistent(s, AllenEquals, AllenMeets) {
		t.Error("S should be consistent with (equals, meets)")
	}
	if PairConsistent(s, AllenBefore, AllenBefore) {
		t.Error("S inconsistent with x-before (that would be SW)")
	}
	if PairConsistent(s, AllenDuring, AllenDuring) {
		t.Error("S inconsistent with y-during (that would include B)")
	}
	// B:W needs x to stick out west but stay inside east: overlaps or
	// finishedBy-ish.
	bw := mustRel(t, "B:W")
	if !PairConsistent(bw, AllenOverlaps, AllenDuring) {
		t.Error("B:W should be consistent with (overlaps, during)")
	}
	if PairConsistent(bw, AllenDuring, AllenDuring) {
		t.Error("B:W needs material west of the box — x during is too small")
	}
}

func TestInverseOfSouth(t *testing.T) {
	// For REG* regions, the possible relations of b w.r.t. a when a S b:
	// b's material is all strictly north of a; horizontally b's span
	// contains a's span, so b shows up in the N row with NW/NE corners
	// optional — but at least one of the mandatory extreme columns.
	got := Inverse(core.S)
	want := core.NewRelationSet(
		core.N,
		mustRel(t, "NW:N"),
		mustRel(t, "N:NE"),
		mustRel(t, "NW:N:NE"),
		mustRel(t, "NW:NE"), // disconnected b: blobs NW and NE, nothing due north
	)
	if !got.Equal(want) {
		t.Errorf("inv(S) = %v, want %v", got, want)
	}
}

func TestInverseSingleTiles(t *testing.T) {
	// inv(SW) = {NE} for box corners: b is entirely NE of a.
	got := Inverse(core.SW)
	if !got.Contains(core.NE) {
		t.Errorf("inv(SW) misses NE: %v", got)
	}
	if got.Len() != 1 {
		t.Errorf("inv(SW) = %v, want exactly {NE}", got)
	}
	// B is in inv(B): a = b satisfies both.
	if !Inverse(core.B).Contains(core.B) {
		t.Error("B missing from inv(B)")
	}
}

func TestInverseMonteCarloSoundAndTight(t *testing.T) {
	g := workload.New(2024)
	pairs := g.Pairs(400, 8)
	for i, p := range pairs {
		r, err := core.ComputeCDR(p.A, p.B)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		q, err := core.ComputeCDR(p.B, p.A)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if !Inverse(r).Contains(q) {
			t.Fatalf("pair %d: observed inverse %v not in inv(%v) = %v", i, q, r, Inverse(r))
		}
	}
}

// Property: inversion is symmetric — Q ∈ inv(R) iff R ∈ inv(Q) — because
// both statements say "(R, Q) is jointly realisable".
func TestInverseSymmetry(t *testing.T) {
	// Spot-check over a structured sample of relations (all single tiles,
	// plus multi-tile samples).
	sample := []core.Relation{
		core.B, core.S, core.SW, core.W, core.NW, core.N, core.NE, core.E, core.SE,
		mustRel(t, "B:W"), mustRel(t, "NE:E"), mustRel(t, "B:S:SW:W"),
		mustRel(t, "NW:NE"), mustRel(t, "B:S:SW:W:NW:N:NE:E:SE"),
	}
	for _, r := range sample {
		for _, q := range Inverse(r).Relations() {
			if !Inverse(q).Contains(r) {
				t.Errorf("asymmetric: %v ∈ inv(%v) but %v ∉ inv(%v)", q, r, r, q)
			}
		}
	}
}

func TestInverseSetAndEdgeCases(t *testing.T) {
	if !Inverse(0).IsEmpty() {
		t.Error("inv(∅) should be empty")
	}
	s := core.NewRelationSet(core.S, core.SW)
	got := InverseSet(s)
	if !got.Contains(core.NE) || !got.Contains(core.N) {
		t.Errorf("InverseSet misses members: %v", got)
	}
}

func TestInverseConcreteDisconnectedExample(t *testing.T) {
	// The NW:NE inverse of S realised concretely: a small box, b two blobs
	// up-left and up-right of it.
	a := workload.BoxRegion(2, 0, 3, 1)
	b := append(workload.BoxRegion(0, 2, 1, 3), workload.BoxRegion(4, 2, 5, 3)...)
	r, err := core.ComputeCDR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r != core.S {
		t.Fatalf("a vs b = %v, want S", r)
	}
	q, err := core.ComputeCDR(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if q != core.Rel(core.TileNW, core.TileNE) {
		t.Fatalf("b vs a = %v, want NW:NE", q)
	}
	if !Inverse(core.S).Contains(q) {
		t.Error("inv(S) must contain NW:NE (REG* semantics)")
	}
	_ = geom.Point{}
}

// TestInverseFullSymmetry checks Q ∈ inv(R) ⇔ R ∈ inv(Q) over the entire
// D* — both statements assert joint realisability of the pair, so the
// relation "mutually inverse" must be symmetric everywhere.
func TestInverseFullSymmetry(t *testing.T) {
	for _, r := range core.AllRelations() {
		for _, q := range Inverse(r).Relations() {
			if !Inverse(q).Contains(r) {
				t.Fatalf("asymmetric: %v ∈ inv(%v) but not vice versa", q, r)
			}
		}
	}
}

// TestInverseNeverEmpty: every basic relation has at least one inverse
// (every realisable configuration has two sides).
func TestInverseNeverEmpty(t *testing.T) {
	for _, r := range core.AllRelations() {
		if Inverse(r).IsEmpty() {
			t.Fatalf("inv(%v) is empty", r)
		}
	}
}
