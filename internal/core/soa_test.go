package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// soaWorlds are the workloads the SoA/one-shot differential runs over:
// scatter (fast-path heavy), cluster (full-kernel heavy, boxes straddling
// grid lines), and an adversarial fixture with edges lying exactly on grid
// lines and threading grid corners — the tie-break and corner-coalescing
// paths where a kernel rewrite would drift first.
func soaWorlds() []struct {
	name    string
	regions []NamedRegion
} {
	adversarial := []NamedRegion{
		// Unit square: its grid lines are x=0, x=1, y=0, y=1.
		{Name: "ref", Region: geom.Rgn(workload.Box(0, 0, 1, 1))},
		// Shares the reference's west line exactly (on-line tie-breaks).
		{Name: "online", Region: geom.Rgn(workload.Box(-1, 0, 0, 1))},
		// Diagonal through the grid corner (0,0) — corner coalescing.
		{Name: "corner", Region: geom.Rgn(geom.Poly(
			geom.Pt(-0.5, -0.5), geom.Pt(0.5, 0.5), geom.Pt(0.5, -0.5)))},
		// Straddles all four lines (contains the reference box).
		{Name: "around", Region: geom.Rgn(workload.Box(-2, -2, 3, 3))},
		// Multi-polygon region with components in different tiles.
		{Name: "multi", Region: geom.Region{
			workload.Box(-3, -3, -2, -2),
			workload.Box(0.25, 0.25, 0.75, 3.5),
		}},
	}
	return []struct {
		name    string
		regions []NamedRegion
	}{
		{"scatter", batchWorkload(20040314, 30)},
		{"cluster", clusterWorkload(6, 24)},
		{"adversarial", adversarial},
	}
}

// naivePairs computes the canonical qualitative answer with the pairwise
// paper transcription over name-sorted regions — what the batch engine
// must reproduce.
func naivePairs(t *testing.T, regions []NamedRegion) []PairRelation {
	t.Helper()
	sorted := append([]NamedRegion{}, regions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var out []PairRelation
	for _, a := range sorted {
		for _, b := range sorted {
			if a.Name == b.Name {
				continue
			}
			rel, _, err := paperCDR(a.Region, b.Region)
			if err != nil {
				t.Fatalf("naive %s vs %s: %v", a.Name, b.Name, err)
			}
			out = append(out, PairRelation{Primary: a.Name, Reference: b.Name, Relation: rel})
		}
	}
	return out
}

// TestSoAKernelDifferential asserts the struct-of-arrays kernels compute
// bit-identical results to the paper transcription (paperCDR,
// paperCDRPct) — Relations, absolute tile areas and percent matrices
// compared with exact float equality — across scatter, cluster and
// adversarial worlds, with pruning both on and off. The quantitative fast
// path answers from areas cached at Prepare time, a different float sum
// than the trapezoid accumulation, so with pruning on the percent leg is
// exact only where the full kernel ran and within tolerance elsewhere.
func TestSoAKernelDifferential(t *testing.T) {
	for _, w := range soaWorlds() {
		qualRef := naivePairs(t, w.regions)
		pctRef := naivePairsPct(t, w.regions)
		for _, noPrune := range []bool{false, true} {
			label := fmt.Sprintf("%s/noPrune=%v", w.name, noPrune)

			qualSoA, err := BatchCDR(nil, w.regions, &BatchOptions{Workers: 1, NoPrune: noPrune})
			if err != nil {
				t.Fatalf("%s: soa qual: %v", label, err)
			}
			if !reflect.DeepEqual(qualSoA.Pairs, qualRef) {
				t.Errorf("%s: qualitative pairs diverge between the SoA kernel and the transcription", label)
			}

			pctSoA, err := BatchPct(nil, w.regions, &BatchOptions{Workers: 1, NoPrune: noPrune})
			if err != nil {
				t.Fatalf("%s: soa pct: %v", label, err)
			}
			if !noPrune {
				pairsPctEqual(t, label, pctSoA.Pairs, pctRef)
				continue
			}
			if len(pctSoA.Pairs) != len(pctRef) {
				t.Fatalf("%s: %d pct pairs vs %d", label, len(pctSoA.Pairs), len(pctRef))
			}
			for i := range pctSoA.Pairs {
				g, r := pctSoA.Pairs[i], pctRef[i]
				if g.Primary != r.Primary || g.Reference != r.Reference {
					t.Fatalf("%s: pair %d order mismatch", label, i)
				}
				if g.Areas != r.Areas || g.Matrix != r.Matrix {
					t.Errorf("%s: %s vs %s not bit-identical:\nsoa areas %v\nref areas %v",
						label, g.Primary, g.Reference, g.Areas, r.Areas)
				}
			}
		}
	}
}

// TestSoAStatsEquivalent pins that the SoA kernels report the same edge
// accounting as the paper transcription: the no-split fast case must count
// like a SplitEdge call that returned one segment, and a pair is one pass.
// PointInPoly is left out: the transcription tests every polygon's center
// where the kernels (and so the one-shot functions) count only the tests
// they run — none at all in Compute-CDR%.
func TestSoAStatsEquivalent(t *testing.T) {
	regions := clusterWorkload(11, 16)
	soa, err := BatchPct(nil, regions, &BatchOptions{Workers: 1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	var ref Stats
	for _, a := range regions {
		for _, b := range regions {
			if a.Name == b.Name {
				continue
			}
			_, _, st, err := paperCDRPct(a.Region, b.Region)
			if err != nil {
				t.Fatal(err)
			}
			ref.Merge(st)
		}
	}
	type edgeCounts struct{ in, out, visits, intersections, passes int }
	got := edgeCounts{soa.Stats.EdgesIn, soa.Stats.EdgesOut, soa.Stats.EdgeVisits, soa.Stats.Intersections, soa.Stats.Passes}
	want := edgeCounts{ref.EdgesIn, ref.EdgesOut, ref.EdgeVisits, ref.Intersections, ref.Passes}
	if got != want {
		t.Errorf("edge counters diverge:\nsoa %+v\nref %+v", got, want)
	}
}

// TestBatchRowZeroAllocs verifies the per-row worker loop of the batch
// engines — relate and relatePctAreasInto — performs zero heap allocations
// on the SoA layout, for both the pruned and the full kernel paths.
func TestBatchRowZeroAllocs(t *testing.T) {
	regions := clusterWorkload(21, 32)
	ps, err := PrepareAll(regions)
	if err != nil {
		t.Fatal(err)
	}
	a := ps[0]
	refs := ps[1:]
	var areas TileAreas
	for _, b := range refs {
		a.relate(b.grid(), false, nil)
		if _, err := a.relatePctAreasInto(&areas, b.grid(), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, noPrune := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, b := range refs {
				a.relate(b.grid(), noPrune, nil)
				if _, err := a.relatePctAreasInto(&areas, b.grid(), noPrune, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("noPrune=%v: %v allocs per row sweep, want 0", noPrune, allocs)
		}
	}
}

// TestPrepareAllEquivalence asserts slab-backed preparation produces
// regions identical to individually-prepared ones — same normalised rings,
// same metadata, same answers — and that the slab is carved exactly: every
// stream's capacity is its length, so an append cannot bleed into a
// neighbour's block.
func TestPrepareAllEquivalence(t *testing.T) {
	regions := clusterWorkload(5, 40)
	// A counter-clockwise member, so the slab path normalises in place.
	ccw := regions[3].Region.Clone()
	for _, ring := range ccw {
		for i, j := 0, len(ring)-1; i < j; i, j = i+1, j-1 {
			ring[i], ring[j] = ring[j], ring[i]
		}
	}
	regions[3].Region = ccw
	slab, err := PrepareAll(regions)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	for i, r := range regions {
		plain, err := Prepare(r.Name, r.Region)
		if err != nil {
			t.Fatal(err)
		}
		p := slab[i]
		if p.NumEdges() != plain.NumEdges() || p.Box != plain.Box ||
			p.fastOK != plain.fastOK || p.totalArea != plain.totalArea {
			t.Fatalf("%s: prepared metadata differs in the slab", r.Name)
		}
		if got, want := p.Region(), r.Region.Clockwise(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Region() = %v, want the clockwise-normalised input %v", r.Name, got, want)
		}
		for k, poly := range r.Region.Clockwise() {
			if p.polys[k].area != poly.Area() || p.polys[k].box != poly.BoundingBox() {
				t.Fatalf("%s polygon %d: area/box differ from the geom methods", r.Name, k)
			}
		}
		ax, ay, bx, by := p.streams()
		for _, st := range [][]float64{p.c, ax, ay, bx, by} {
			if cap(st) != len(st) {
				t.Fatalf("%s: stream len %d cap %d, want equal", r.Name, len(st), cap(st))
			}
		}
		if cap(p.polys) != len(p.polys) {
			t.Fatalf("%s: metadata blocks not capped", r.Name)
		}
		b := slab[(i+1)%len(slab)]
		relA, errA := Relate(p, b, sc)
		relB, errB := Relate(plain, b, sc)
		if errA != nil || errB != nil {
			t.Fatalf("%s: relate errors %v / %v", r.Name, errA, errB)
		}
		if relA != relB {
			t.Fatalf("%s: slab-prepared relation %v != plain %v", r.Name, relA, relB)
		}
		mA, aA, errA := RelatePct(p, b, sc)
		mB, aB, errB := RelatePct(plain, b, sc)
		if errA != nil || errB != nil {
			t.Fatalf("%s: relatePct errors %v / %v", r.Name, errA, errB)
		}
		if mA != mB || aA != aB {
			t.Fatalf("%s: slab-prepared percent result differs", r.Name)
		}
	}
}

// benchCluster prepares a cluster world once for the kernel benchmarks.
func benchCluster(b *testing.B, n int) []*Prepared {
	b.Helper()
	ps, err := PrepareAll(clusterWorkload(2026, n))
	if err != nil {
		b.Fatal(err)
	}
	return ps
}

// BenchmarkPctKernelSoA measures the full quantitative kernel (pruning off,
// one worker) on the struct-of-arrays layout.
func BenchmarkPctKernelSoA(b *testing.B) {
	ps := benchCluster(b, 64)
	opt := BatchOptions{Workers: 1, NoPrune: true, Prepared: ps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BatchPct(nil, nil, &opt); err != nil {
			b.Fatal(err)
		}
	}
}
