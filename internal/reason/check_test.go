package reason

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/topo"
)

// checkOK runs Check and fails the test on any error.
func checkOK(t *testing.T, n *Network, opts CheckOptions) *CheckResult {
	t.Helper()
	res, err := n.Check(context.Background(), opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestCheckEmptyNetwork(t *testing.T) {
	n := NewNetwork()
	res := checkOK(t, n, CheckOptions{})
	if !res.Satisfiable || res.Witness == nil || len(res.Witness.Regions) != 0 {
		t.Fatalf("empty network: %+v", res)
	}
	if res.Stats.Vars != 0 || res.Stats.Edges != 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestCheckSingleVariable(t *testing.T) {
	n := NewNetwork()
	n.AddVariable("a")
	res := checkOK(t, n, CheckOptions{})
	if !res.Satisfiable || res.Witness == nil {
		t.Fatalf("single variable: %+v", res)
	}
	if _, ok := res.Witness.Regions["a"]; !ok {
		t.Error("witness missing the variable's region")
	}
}

func TestCheckSelfLoop(t *testing.T) {
	// a N a is impossible; a B a is the only consistent self constraint.
	bad := NewNetwork()
	if err := bad.ConstrainRel("a", "a", core.N); err != nil {
		t.Fatal(err)
	}
	if res := checkOK(t, bad, CheckOptions{}); res.Satisfiable {
		t.Error("a N a accepted")
	}
	good := NewNetwork()
	if err := good.ConstrainRel("a", "a", core.B); err != nil {
		t.Fatal(err)
	}
	if res := checkOK(t, good, CheckOptions{}); !res.Satisfiable {
		t.Error("a B a rejected")
	}
}

func TestCheckDoesNotMutateNetwork(t *testing.T) {
	n := NewNetwork()
	rs := core.NewRelationSet(core.N, core.S, core.B)
	if err := n.Constrain("a", "b", rs); err != nil {
		t.Fatal(err)
	}
	if err := n.ConstrainRel("b", "a", core.S); err != nil {
		t.Fatal(err)
	}
	checkOK(t, n, CheckOptions{})
	if got := n.cons[[2]int{0, 1}]; !got.Equal(rs) {
		t.Errorf("Check mutated the caller's constraint: %v", got)
	}
}

func TestCheckWitnessVerifies(t *testing.T) {
	n := NewNetwork()
	n.ConstrainRel("a", "b", core.N)
	n.ConstrainRel("b", "c", mustRel(t, "NE:E"))
	n.Constrain("a", "c", core.NewRelationSet(core.N, core.NE, mustRel(t, "N:NE")))
	res := checkOK(t, n, CheckOptions{})
	if !res.Satisfiable {
		t.Fatal("satisfiable network rejected")
	}
	verifyWitness(t, n, res.Witness)
}

// TestCheckFastPathDecides: a chain of single-tile constraints is in the
// tractable fragment; the fast path must decide it — both ways — without
// entering the backtracking solver (counter-asserted via the stats).
func TestCheckFastPathDecides(t *testing.T) {
	sat := NewNetwork()
	sat.ConstrainRel("a", "b", core.N)
	sat.ConstrainRel("b", "c", core.NW)
	sat.ConstrainRel("a", "d", mustRel(t, "B:N")) // rectangular block: col {1}, rows {1,2}
	res := checkOK(t, sat, CheckOptions{})
	if !res.Stats.FastPathEligible || !res.Stats.FastPathDecided {
		t.Fatalf("fast path did not decide: %+v", res.Stats)
	}
	if res.Stats.SolverBranches != 0 {
		t.Errorf("solver ran despite fast path: %+v", res.Stats)
	}
	if !res.Satisfiable {
		t.Fatal("satisfiable in-fragment network rejected")
	}
	verifyWitness(t, sat, res.Witness)

	// An N-cycle is unsatisfiable; axis path consistency refutes it.
	unsat := NewNetwork()
	unsat.ConstrainRel("a", "b", core.N)
	unsat.ConstrainRel("b", "c", core.N)
	unsat.ConstrainRel("c", "a", core.N)
	res = checkOK(t, unsat, CheckOptions{})
	if res.Satisfiable {
		t.Fatal("N-cycle accepted")
	}
	// Refine alone already refutes the cycle, so assert only that no
	// backtracking happened.
	if res.Stats.SolverBranches != 0 {
		t.Errorf("solver ran on the N-cycle: %+v", res.Stats)
	}
}

// TestCheckFragmentDifferential: random in-fragment networks decided by the
// fast path must agree with the full solver with the fast path disabled.
func TestCheckFragmentDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := rectangularRelations()
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		n := NewNetwork()
		for _, name := range names {
			n.AddVariable(name)
		}
		for e := 0; e < 4; e++ {
			i := rng.Intn(len(names))
			j := rng.Intn(len(names))
			if i == j {
				continue
			}
			n.ConstrainRel(names[i], names[j], blocks[rng.Intn(len(blocks))])
		}
		fast := checkOK(t, n, CheckOptions{})
		slow := checkOK(t, n, CheckOptions{NoFastPath: true, NoParallel: true})
		if fast.Satisfiable != slow.Satisfiable {
			t.Fatalf("trial %d: fast=%v slow=%v for %v", trial, fast.Satisfiable, slow.Satisfiable, n.cons)
		}
		if fast.Satisfiable {
			verifyWitness(t, n, fast.Witness)
		}
	}
}

// rectangularRelations lists every full contiguous rectangular tile block —
// the basic relations of the tractable fragment.
func rectangularRelations() []core.Relation {
	spans := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}}
	var out []core.Relation
	for _, cols := range spans {
		for _, rows := range spans {
			var r core.Relation
			for _, c := range cols {
				for _, w := range rows {
					r = r.With(core.TileAt(c, w))
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// TestCheckParallelDifferential: the parallel and sequential solvers agree
// on satisfiability over random disjunctive networks, and parallel
// witnesses verify.
func TestCheckParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c", "d"}
	singles := []core.Relation{core.B, core.S, core.SW, core.W, core.NW, core.N, core.NE, core.E, core.SE}
	for trial := 0; trial < 40; trial++ {
		n := NewNetwork()
		for e := 0; e < 3; e++ {
			i := rng.Intn(len(names))
			j := rng.Intn(len(names))
			if i == j {
				continue
			}
			var rs core.RelationSet
			for k := 0; k < 1+rng.Intn(3); k++ {
				rs.Add(singles[rng.Intn(len(singles))])
			}
			n.Constrain(names[i], names[j], rs)
		}
		wseq, errSeq := n.SolveCtx(context.Background(), SolveOptions{})
		wpar, errPar := n.SolveParallel(context.Background(), SolveOptions{Workers: 4})
		if errSeq != nil || errPar != nil {
			t.Fatalf("trial %d: errs %v / %v", trial, errSeq, errPar)
		}
		if (wseq != nil) != (wpar != nil) {
			t.Fatalf("trial %d: sequential=%v parallel=%v for %v", trial, wseq != nil, wpar != nil, n.cons)
		}
		if wpar != nil {
			verifyWitness(t, n, wpar)
		}
	}
}

// TestCheckSolverWorkers: the stat counts the goroutines the search ran on,
// not the Workers the caller asked for — the seed count caps the fan, and
// the sequential solver is one goroutine whatever Workers says.
func TestCheckSolverWorkers(t *testing.T) {
	// a {S,W,N,E,SE} b with b NW a: the branch edge (a, b) has four viable
	// seeds, all under SE.
	n := NewNetwork()
	if err := n.Constrain("a", "b", core.NewRelationSet(core.S, core.W, core.N, core.E, core.SE)); err != nil {
		t.Fatal(err)
	}
	if err := n.ConstrainRel("b", "a", core.NW); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"c0", "c1"} {
		if err := n.Constrain("a", c, core.NewRelationSet(core.N, core.S)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name                  string
		opts                  CheckOptions
		branches, wantWorkers int
	}{
		{"default fan", CheckOptions{NoFastPath: true}, 4, 4},
		{"narrow fan", CheckOptions{NoFastPath: true, Workers: 2}, 4, 2},
		{"workers 1", CheckOptions{NoFastPath: true, Workers: 1}, 1, 1},
		{"no parallel", CheckOptions{NoFastPath: true, NoParallel: true, Workers: 8}, 1, 1},
	} {
		res := checkOK(t, n, tc.opts)
		if !res.Satisfiable {
			t.Fatalf("%s: hidden-witness network reported unsat", tc.name)
		}
		if res.Stats.SolverBranches != tc.branches || res.Stats.SolverWorkers != tc.wantWorkers {
			t.Errorf("%s: branches %d, workers %d; want %d, %d", tc.name,
				res.Stats.SolverBranches, res.Stats.SolverWorkers, tc.branches, tc.wantWorkers)
		}
	}
}

// TestCheckCancellationNoLeak: cancelling mid-solve returns the context
// error and leaves no solver goroutines behind.
func TestCheckCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	// A hard unsatisfiable-ish network that searches long enough to be
	// cancelled: disjunctive constraints over a clique.
	n := NewNetwork()
	names := []string{"a", "b", "c", "d", "e"}
	rs := core.NewRelationSet(core.N, core.S, core.E, core.W)
	for i := range names {
		for j := range names {
			if i != j {
				n.Constrain(names[i], names[j], rs)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := n.Check(ctx, CheckOptions{Workers: 8, MaxScenarios: 1 << 30})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline or a fast decision", err)
	}
	// Give cancelled branch goroutines a moment to unwind, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckSearchLimit: a tiny shared budget surfaces ErrSearchLimit from
// the parallel solver (or succeeds instantly — both are acceptable; what
// must not happen is a hang or a wrong "unsatisfiable").
func TestCheckSearchLimit(t *testing.T) {
	n := NewNetwork()
	names := []string{"a", "b", "c", "d"}
	for i := range names {
		for j := range names {
			if i != j {
				n.Constrain(names[i], names[j], core.Universe())
			}
		}
	}
	// Universe edges are dropped by Check; constrain semi-tightly instead.
	n2 := NewNetwork()
	rs := core.NewRelationSet(core.N, core.S, core.E, core.W, core.NE)
	for i := range names {
		for j := range names {
			if i != j {
				n2.Constrain(names[i], names[j], rs)
			}
		}
	}
	res, err := n2.Check(context.Background(), CheckOptions{MaxScenarios: 1, Workers: 4})
	if err != nil && !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("err = %v", err)
	}
	if err == nil && res.Satisfiable {
		verifyWitness(t, n2, res.Witness)
	}
}

// TestCheckJointRejects: networks consistent under each closure alone but
// jointly unsatisfiable are rejected by the combined check.
func TestCheckJointRejects(t *testing.T) {
	// dir: a strictly north of b; topo: a inside b. Containment forces
	// dir(a,b) = B, clashing with N.
	n := NewNetwork()
	n.ConstrainRel("a", "b", core.N)
	if ok := n.Clone().Refine(); !ok {
		t.Fatal("directional closure alone should accept a N b")
	}
	res := checkOK(t, n, CheckOptions{Topology: []TopoConstraint{
		{X: "a", Y: "b", Rels: topo.RCC8Of(topo.TPP)},
	}})
	if res.Satisfiable {
		t.Fatal("jointly unsatisfiable network accepted")
	}
	if !res.Stats.JointApplied || !res.Stats.JointRejected {
		t.Errorf("stats: %+v", res.Stats)
	}

	// Pure topology: a ⊂⊂ b ⊂⊂ c with a DC c is inconsistent by RCC-8
	// path consistency even with no directional constraints at all.
	n2 := NewNetwork()
	for _, v := range []string{"a", "b", "c"} {
		n2.AddVariable(v)
	}
	res = checkOK(t, n2, CheckOptions{Topology: []TopoConstraint{
		{X: "a", Y: "b", Rels: topo.RCC8Of(topo.NTPP)},
		{X: "b", Y: "c", Rels: topo.RCC8Of(topo.NTPP)},
		{X: "a", Y: "c", Rels: topo.RCC8Of(topo.DC)},
	}})
	if res.Satisfiable {
		t.Fatal("NTPP chain with DC shortcut accepted")
	}

	// And a jointly consistent pair stays satisfiable with a verified
	// witness: a north of b, both disconnected.
	n3 := NewNetwork()
	n3.ConstrainRel("a", "b", core.N)
	res = checkOK(t, n3, CheckOptions{Topology: []TopoConstraint{
		{X: "a", Y: "b", Rels: topo.RCC8Of(topo.DC)},
	}})
	if !res.Satisfiable {
		t.Fatal("jointly consistent network rejected")
	}
	verifyWitness(t, n3, res.Witness)

	// Unknown topology variables are an error, not a silent accept.
	if _, err := n3.Check(context.Background(), CheckOptions{Topology: []TopoConstraint{
		{X: "a", Y: "nosuch", Rels: topo.RCC8Of(topo.DC)},
	}}); err == nil {
		t.Fatal("unknown topology variable accepted")
	}
}

// TestEntailInconsistentSentinel: Entail surfaces ErrInconsistent for
// refutable networks so callers (and the HTTP layer) can match it.
func TestEntailInconsistentSentinel(t *testing.T) {
	n := NewNetwork()
	n.ConstrainRel("a", "b", core.N)
	n.ConstrainRel("b", "a", core.N)
	if _, err := n.Entail("a", "b"); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

// FuzzSolverDifferential drives random small networks through the
// sequential solver, the parallel solver, and Check (fast path on), and
// requires identical satisfiability verdicts plus verified witnesses.
func FuzzSolverDifferential(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56})
	f.Add([]byte{0xff, 0x00, 0x81, 0x7e})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 12 {
			t.Skip()
		}
		names := []string{"a", "b", "c", "d"}
		singles := []core.Relation{core.B, core.S, core.SW, core.W, core.NW, core.N, core.NE, core.E, core.SE}
		n := NewNetwork()
		// Each byte encodes one constraint: 4 bits pair selector, 4 bits
		// relation disjunction seed.
		for _, bt := range data {
			i := int(bt>>6) & 3
			j := int(bt>>4) & 3
			if i == j {
				continue
			}
			var rs core.RelationSet
			seed := int(bt & 0xf)
			rs.Add(singles[seed%len(singles)])
			if seed >= 9 {
				rs.Add(singles[(seed*5)%len(singles)])
			}
			n.Constrain(names[i], names[j], rs)
		}
		opts := SolveOptions{MaxScenarios: 20000}
		wseq, errSeq := n.SolveCtx(context.Background(), opts)
		wpar, errPar := n.SolveParallel(context.Background(), SolveOptions{MaxScenarios: 20000, Workers: 4})
		if errors.Is(errSeq, ErrSearchLimit) || errors.Is(errPar, ErrSearchLimit) {
			t.Skip() // budget races make the verdicts incomparable
		}
		if errSeq != nil || errPar != nil {
			t.Fatalf("errs: %v / %v", errSeq, errPar)
		}
		if (wseq != nil) != (wpar != nil) {
			t.Fatalf("sequential=%v parallel=%v for %v", wseq != nil, wpar != nil, n.cons)
		}
		res, err := n.Check(context.Background(), CheckOptions{MaxScenarios: 20000, Workers: 4})
		if errors.Is(err, ErrSearchLimit) {
			t.Skip()
		}
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if res.Satisfiable != (wseq != nil) {
			t.Fatalf("Check=%v solver=%v for %v", res.Satisfiable, wseq != nil, n.cons)
		}
		if wpar != nil {
			verifyWitness(t, n, wpar)
		}
		if res.Witness != nil {
			verifyWitness(t, n, res.Witness)
		}
	})
}
