package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// batchWorkload builds n named regions with a deliberate mix of MBB
// configurations: scattered stars (many strictly-disjoint boxes), nested
// regions (contained MBBs), and large regions overlapping several grid
// lines (no fast path).
func batchWorkload(seed int64, n int) []NamedRegion {
	g := workload.New(seed)
	scattered := g.Scatter(n, 8)
	out := make([]NamedRegion, n)
	for i, r := range scattered {
		out[i] = NamedRegion{Name: fmt.Sprintf("r%03d", i), Region: r}
	}
	return out
}

// batchCDR is BatchCDR for tests that expect success: the pairs and the
// aggregated stats of one run.
func batchCDR(t testing.TB, regions []NamedRegion, opt BatchOptions) ([]PairRelation, Stats) {
	t.Helper()
	res, err := BatchCDR(context.Background(), regions, &opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Pairs, res.Stats
}

// TestComputeAllPairsDifferential asserts the three implementations agree
// exactly: parallel ≡ sequential ≡ unpruned ≡ pairwise ComputeCDR, over
// several seeds.
func TestComputeAllPairsDifferential(t *testing.T) {
	for _, seed := range []int64{1, 20040314, 777} {
		regions := batchWorkload(seed, 40)
		seq, _ := batchCDR(t, regions, BatchOptions{Workers: 1})
		par, _ := batchCDR(t, regions, BatchOptions{})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("seed %d: parallel output differs from sequential", seed)
		}
		noPrune, st := batchCDR(t, regions, BatchOptions{Workers: 1, NoPrune: true})
		if !reflect.DeepEqual(seq, noPrune) {
			t.Fatalf("seed %d: pruned output differs from unpruned", seed)
		}
		if st.PruneSingleTile != 0 || st.PruneBand != 0 {
			t.Fatalf("seed %d: NoPrune recorded prune hits: %+v", seed, st)
		}
		_, stPruned := batchCDR(t, regions, BatchOptions{Workers: 1})
		if stPruned.PruneSingleTile+stPruned.PruneBand == 0 {
			t.Errorf("seed %d: scattered workload should hit the prune path", seed)
		}
		// Pairwise ground truth through the paper's reference algorithm.
		byName := map[string]geom.Region{}
		for _, r := range regions {
			byName[r.Name] = r.Region
		}
		for _, pr := range seq {
			want, err := ComputeCDR(byName[pr.Primary], byName[pr.Reference])
			if err != nil {
				t.Fatal(err)
			}
			if pr.Relation != want {
				t.Fatalf("seed %d: %s vs %s: batch %v != ComputeCDR %v",
					seed, pr.Primary, pr.Reference, pr.Relation, want)
			}
		}
	}
}

// TestComputeAllPairsWorkerCounts: every worker count produces the same,
// sorted output and the same merged Stats, qualitative and quantitative.
// Run with -race this also exercises the pool for data races.
func TestComputeAllPairsWorkerCounts(t *testing.T) {
	regions := batchWorkload(42, 30)
	want, wantSt := batchCDR(t, regions, BatchOptions{Workers: 1})
	wantPct, wantPctSt := batchPct(t, regions, BatchOptions{Workers: 1})
	if len(want) != 30*29 {
		t.Fatalf("pairs = %d, want %d", len(want), 30*29)
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].Primary > want[i].Primary ||
			(want[i-1].Primary == want[i].Primary && want[i-1].Reference > want[i].Reference) {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	for _, workers := range []int{2, 3, 4, 7, 16, 64} {
		got, st := batchCDR(t, regions, BatchOptions{Workers: workers})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: output differs from sequential", workers)
		}
		if !reflect.DeepEqual(wantSt, st) {
			t.Fatalf("workers=%d: Stats %+v, sequential %+v", workers, st, wantSt)
		}
		gotPct, pctSt := batchPct(t, regions, BatchOptions{Workers: workers})
		if !reflect.DeepEqual(wantPct, gotPct) {
			t.Fatalf("workers=%d: percent output differs from sequential", workers)
		}
		if !reflect.DeepEqual(wantPctSt, pctSt) {
			t.Fatalf("workers=%d: percent Stats %+v, sequential %+v", workers, pctSt, wantPctSt)
		}
	}
}

// TestContainedMBBPairs exercises the contained-box configurations
// explicitly: a small region strictly inside a big one's box is answered by
// the single-tile path, and the big one against the small one takes the
// full path; both must match ComputeCDR.
func TestContainedMBBPairs(t *testing.T) {
	regions := []NamedRegion{
		{Name: "big", Region: geom.Rgn(workload.Box(0, 0, 20, 20))},
		{Name: "small", Region: geom.Rgn(workload.Box(8, 8, 12, 12))},
		{Name: "west", Region: geom.Rgn(workload.Box(-30, 5, -25, 15))},
	}
	got, st := batchCDR(t, regions, BatchOptions{Workers: 1})
	if st.PruneSingleTile == 0 {
		t.Errorf("contained pair should hit the single-tile path: %+v", st)
	}
	for _, pr := range got {
		var a, b geom.Region
		for _, r := range regions {
			if r.Name == pr.Primary {
				a = r.Region
			}
			if r.Name == pr.Reference {
				b = r.Region
			}
		}
		want, err := ComputeCDR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Relation != want {
			t.Errorf("%s vs %s = %v, want %v", pr.Primary, pr.Reference, pr.Relation, want)
		}
	}
}

// TestComputeAllPairsPreparedReuse: callers holding Prepared values get the
// same results without re-preparation.
func TestComputeAllPairsPreparedReuse(t *testing.T) {
	regions := batchWorkload(5, 20)
	want, _ := batchCDR(t, regions, BatchOptions{Workers: 1})
	ps, err := PrepareAll(regions)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := batchCDR(t, nil, BatchOptions{Prepared: ps})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("prepared-reuse output differs")
	}
	// A region unusable as reference fails the whole batch, by name.
	line, err := Prepare("line", geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BatchCDR(context.Background(), nil, &BatchOptions{Prepared: append(ps, line)}); err == nil {
		t.Error("degenerate reference should fail the prepared batch")
	}
}

func TestComputeAllPairs(t *testing.T) {
	regions := []NamedRegion{
		{Name: "b", Region: refB()},
		{Name: "a", Region: box(2, -5, 8, -1)},
		{Name: "c", Region: box(12, 2, 14, 10)},
	}
	got, _ := batchCDR(t, regions, BatchOptions{Workers: 1})
	if len(got) != 6 {
		t.Fatalf("pairs = %d, want 6", len(got))
	}
	// Sorted by (primary, reference).
	for i := 1; i < len(got); i++ {
		if got[i-1].Primary > got[i].Primary ||
			(got[i-1].Primary == got[i].Primary && got[i-1].Reference > got[i].Reference) {
			t.Fatalf("not sorted at %d: %v", i, got)
		}
	}
	// Every entry equals a direct computation.
	byName := map[string]geom.Region{}
	for _, r := range regions {
		byName[r.Name] = r.Region
	}
	for _, pr := range got {
		want, err := ComputeCDR(byName[pr.Primary], byName[pr.Reference])
		if err != nil {
			t.Fatal(err)
		}
		if pr.Relation != want {
			t.Errorf("%s vs %s: batch %v != direct %v", pr.Primary, pr.Reference, pr.Relation, want)
		}
	}
	// a vs b must be S (Fig. 1b).
	for _, pr := range got {
		if pr.Primary == "a" && pr.Reference == "b" && pr.Relation != S {
			t.Errorf("a vs b = %v, want S", pr.Relation)
		}
	}
}

func TestComputeAllPairsErrors(t *testing.T) {
	batch := func(regions ...NamedRegion) ([]PairRelation, error) {
		res, err := BatchCDR(context.Background(), regions, &BatchOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		return res.Pairs, nil
	}
	if got, err := batch(); err != nil || got != nil {
		t.Error("empty input should be a no-op")
	}
	if _, err := batch(NamedRegion{Name: "", Region: refB()}, NamedRegion{Name: "x", Region: refB()}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := batch(NamedRegion{Name: "x", Region: refB()}, NamedRegion{Name: "x", Region: refB()}); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := batch(NamedRegion{Name: "x", Region: refB()}, NamedRegion{Name: "y", Region: geom.Region{}}); err == nil {
		t.Error("empty region should fail")
	}
}

func BenchmarkRelatePreparedPair(b *testing.B) {
	g := workload.New(20040314)
	c := g.ScalingSweep([]int{1024})[0]
	pa, err := Prepare("a", c.A)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := Prepare("b", c.B)
	if err != nil {
		b.Fatal(err)
	}
	sc := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Relate(pa, pb, sc); err != nil {
			b.Fatal(err)
		}
	}
}
