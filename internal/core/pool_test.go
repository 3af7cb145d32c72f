package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// TestOneShotPooledAllocs pins the scratch pool: the one-shot convenience
// paths (ComputeCDR, ComputeCDRPct, Relate/RelatePct with a nil scratch)
// allocate nothing once the pool is warm — for a counter-clockwise ring,
// which the preparation reverses straight into the pooled block, and for a
// 10^4-edge primary, the largest of the Theorems 1–2 sweep. Under the race
// detector sync.Pool drops a random share of Puts, so the pooled entries
// are skipped there; the held-Scratch entries run the same preparation and
// kernels without the pool and so check the storage reuse in every build.
func TestOneShotPooledAllocs(t *testing.T) {
	a := geom.Rgn(workload.Box(2, -8, 8, -2))
	b := geom.Rgn(workload.Box(0, 0, 10, 6))
	pa, err := Prepare("a", a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Prepare("b", b)
	if err != nil {
		t.Fatal(err)
	}
	ccw := reversed(a)
	sweep := workload.New(20040314).ScalingSweep([]int{10000})[0]
	// Warm the pool and sanity-check the answers once.
	for _, r := range []geom.Region{a, ccw} {
		rel, err := ComputeCDR(r, b)
		if err != nil {
			t.Fatal(err)
		}
		if rel != S {
			t.Fatalf("ComputeCDR = %v, want %v", rel, S)
		}
	}
	if _, _, err := ComputeCDRPct(sweep.A, sweep.B); err != nil {
		t.Fatal(err)
	}

	// One Scratch held across calls, as a pooled call gets when the pool
	// keeps it: sc.primary must reuse its storage for both primaries.
	sc := new(Scratch)
	gb, err := NewGrid(b.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGrid(sweep.B.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	var areas TileAreas
	held := func(r geom.Region, g Grid) func() {
		return func() {
			var st Stats
			sc.primary(r).relateFull(g, &st)
			_, _ = sc.primary(r).relatePctFullInto(&areas, g, &st)
		}
	}
	held(sweep.A, gs)() // grow the held storage to the larger primary

	for _, tc := range []struct {
		name   string
		pooled bool
		f      func()
	}{
		{"ComputeCDR", true, func() { _, _ = ComputeCDR(a, b) }},
		{"ComputeCDRPct", true, func() { _, _, _ = ComputeCDRPct(a, b) }},
		{"ComputeCDR/ccw", true, func() { _, _ = ComputeCDR(ccw, b) }},
		{"ComputeCDRPct/ccw", true, func() { _, _, _ = ComputeCDRPct(ccw, b) }},
		{"ComputeCDR/10^4", true, func() { _, _ = ComputeCDR(sweep.A, sweep.B) }},
		{"ComputeCDRPct/10^4", true, func() { _, _, _ = ComputeCDRPct(sweep.A, sweep.B) }},
		{"HeldScratch/ccw", false, held(ccw, gb)},
		{"HeldScratch/10^4", false, held(sweep.A, gs)},
		{"RelateNilSc", false, func() { _, _ = Relate(pa, pb, nil) }},
		{"RelatePctNilSc", false, func() { _, _, _ = RelatePct(pa, pb, nil) }},
	} {
		if tc.pooled && raceEnabled {
			continue
		}
		if avg := testing.AllocsPerRun(50, tc.f); avg > 0 {
			t.Errorf("%s allocates %.1f objects per call with warm storage, want 0", tc.name, avg)
		}
	}
}

// TestScratchPoolCap pins the pool's retention rule: a Scratch keeps its
// one-shot storage, and the strip stage's buffers, up to maxPooledEdges
// edges and drops anything larger on the way back to the pool.
func TestScratchPoolCap(t *testing.T) {
	for _, tc := range []struct {
		edges int
		kept  bool
	}{
		{maxPooledEdges, true},
		{maxPooledEdges + 1, false},
	} {
		r := workload.New(1).ScalingSweep([]int{tc.edges})[0].A
		sc := new(Scratch)
		if p := sc.primary(r); p.NumEdges() != tc.edges {
			t.Fatalf("primary has %d edges, want %d", p.NumEdges(), tc.edges)
		}
		putScratch(sc)
		if kept := sc.prim.c != nil && sc.prim.polys != nil; kept != tc.kept {
			t.Errorf("%d edges: storage kept = %v, want %v", tc.edges, kept, tc.kept)
		}

		// The strip stage over the same primary, against a grid around its
		// center: the band meets a few edges, so every buffer is grown.
		p, err := Prepare("a", r)
		if err != nil {
			t.Fatal(err)
		}
		sc = new(Scratch)
		if _, ok := (&stripIndex{p: p}).relateStrip(Grid{M1: -0.01, M2: 0.01, L1: -0.01, L2: 0.01}, sc); !ok {
			t.Fatalf("%d edges: strip stage declined", tc.edges)
		}
		if len(sc.stripSeen) != tc.edges || sc.stripEpoch == 0 || sc.stripIDs == nil || sc.polyMark == nil || sc.polyTouched == nil {
			t.Fatalf("%d edges: strip buffers not grown", tc.edges)
		}
		putScratch(sc)
		kept := sc.stripSeen != nil && sc.stripIDs != nil && sc.polyMark != nil && sc.polyTouched != nil
		if dropped := sc.stripSeen == nil && sc.stripEpoch == 0 && sc.stripIDs == nil && sc.polyMark == nil && sc.polyTouched == nil; kept != tc.kept || dropped == tc.kept {
			t.Errorf("%d edges: strip buffers kept = %v, dropped = %v, want kept %v", tc.edges, kept, dropped, tc.kept)
		}
	}
}

// TestSweepErrorPrecedence pins what the sweep returns besides its rows: a
// failing row does not stop the others, the error of the lowest failing row
// wins whatever the worker count, every row's Stats reach the total, and a
// done context wins over any row error.
func TestSweepErrorPrecedence(t *testing.T) {
	const rows = 50
	row := func(r int, _ *Scratch, st *Stats) error {
		st.Passes++
		if r%7 == 3 {
			return fmt.Errorf("row %d", r)
		}
		return nil
	}
	for _, workers := range []int{1, 2, 4, 16} {
		st, err := sweep(context.Background(), rows, workers, row)
		if err == nil || err.Error() != "row 3" {
			t.Errorf("workers=%d: err = %v, want row 3", workers, err)
		}
		if st.Passes != rows {
			t.Errorf("workers=%d: %d rows counted, want %d", workers, st.Passes, rows)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if st, err := sweep(ctx, rows, workers, row); !errors.Is(err, context.Canceled) || st.Passes != 0 {
			t.Errorf("workers=%d: cancelled sweep ran %d rows, err = %v; want none, context.Canceled", workers, st.Passes, err)
		}
	}
}
