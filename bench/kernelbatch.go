package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// Workload kernel-batch: the paper's algorithms with no service around
// them — the core library called in-process from one goroutine with one
// worker. core and geom do all the work; serve, wal, persist and replica do
// none. The Cluster/Scatter pair is the exercise/bypass pair for the exact
// kernel against the MBB fast paths.
const (
	kernelRegions = 1000
	kernelEdges   = 16
	// One heavy operation is BatchCDR + BatchPct over one whole group of
	// the Cluster world: kernelBatch regions whose boxes all overlap, so no
	// pair prunes and the exact kernel decides every one. One light
	// operation is the same call over kernelBatch consecutive regions of
	// the Scatter world, whose boxes are mostly disjoint: the MBB fast path
	// answers nearly every pair.
	kernelBatch  = 50
	kernelGroups = kernelRegions / kernelBatch
	lodRegions   = 100_000
	lodMaxEdges  = 4096
	lodRows      = 64
	// A window of the light or heavy phase is kernelWindow operations: a
	// whole number of passes over the kernelGroups inputs, so every window
	// does the same work; a window of the one-shot phase is sweepWindow
	// passes over the sweep. See quietPercentile.
	kernelWindow = 5 * kernelGroups
	sweepWindow  = 50
)

// sweepEdges are the one-shot phase's primary sizes: 10² … 10⁴ edges, the
// range of the paper's linearity claim (Theorems 1 and 2).
var sweepEdges = []int{100, 316, 1000, 3162, 10000}

func named(prefix string, rs []geom.Region) []core.NamedRegion {
	out := make([]core.NamedRegion, len(rs))
	for i, r := range rs {
		out[i] = core.NamedRegion{Name: fmt.Sprintf("%s%06d", prefix, i), Region: r}
	}
	return out
}

// kernelInputs are the generated worlds; generating them is not timed.
type kernelInputs struct {
	scatter, cluster, zipf []core.NamedRegion
	sweep                  []workload.ScalingCase
}

func newKernelInputs(seed int64) kernelInputs {
	g := workload.New(seed)
	return kernelInputs{
		scatter: named("s", g.Scatter(kernelRegions, kernelEdges)),
		cluster: named("k", g.Cluster(kernelRegions, kernelGroups, kernelEdges)),
		zipf:    named("z", g.Zipf(geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}, lodRegions, lodMaxEdges)),
		sweep:   g.ScalingSweep(sweepEdges),
	}
}

// clusterGroup returns the members of one group of the Cluster world: the
// generator deals regions to groups round-robin.
func (in kernelInputs) clusterGroup(k int) []core.NamedRegion {
	out := make([]core.NamedRegion, 0, kernelBatch)
	for i := k % kernelGroups; i < len(in.cluster); i += kernelGroups {
		out = append(out, in.cluster[i])
	}
	return out
}

// scatterWindow returns one of the kernelGroups disjoint runs of kernelBatch
// consecutive regions of the Scatter world.
func (in kernelInputs) scatterWindow(k int) []core.NamedRegion {
	start := k % kernelGroups * kernelBatch
	return in.scatter[start : start+kernelBatch]
}

// kernelSetup is what a library user does before the first answer: prepare
// every region of both worlds and build the level-of-detail world.
func kernelSetup(in kernelInputs) (*core.LoDWorld, time.Duration, error) {
	start := time.Now()
	if _, err := core.PrepareAll(in.scatter); err != nil {
		return nil, 0, err
	}
	if _, err := core.PrepareAll(in.cluster); err != nil {
		return nil, 0, err
	}
	lw, err := core.PrepareLoDWorld(in.zipf, core.LoDOptions{Workers: 1})
	return lw, time.Since(start), err
}

var oneWorker = &core.BatchOptions{Workers: 1}

// batchOp is one library call pair over a small world, checked on one
// sampled pair against from-scratch Compute-CDR and Compute-CDR%.
func (r *run) batchOp(t *tracer, phase string, req int, regions []core.NamedRegion, rng *rand.Rand) (time.Duration, core.Stats, core.Stats, error) {
	ctx := context.Background()
	start := time.Now()
	root := t.begin("bench.kernel."+phase, -1, req)
	sp := t.begin("core.BatchCDR", root, req)
	qual, err := core.BatchCDR(ctx, regions, oneWorker)
	t.end(sp)
	if err != nil {
		return 0, core.Stats{}, core.Stats{}, err
	}
	sp = t.begin("core.BatchPct", root, req)
	pct, err := core.BatchPct(ctx, regions, oneWorker)
	t.end(sp)
	t.end(root)
	took := time.Since(start)
	if err != nil {
		return 0, core.Stats{}, core.Stats{}, err
	}
	r.tally.attempted.Add(1)
	k := rng.Intn(len(qual.Pairs))
	q, p := qual.Pairs[k], pct.Pairs[k]
	var a, b geom.Region
	for _, reg := range regions {
		if reg.Name == q.Primary {
			a = reg.Region
		}
		if reg.Name == q.Reference {
			b = reg.Region
		}
	}
	want, err := core.ComputeCDR(a, b)
	if err != nil {
		return 0, core.Stats{}, core.Stats{}, err
	}
	wantPct, _, err := core.ComputeCDRPct(a, b)
	if err != nil {
		return 0, core.Stats{}, core.Stats{}, err
	}
	switch {
	case p.Primary != q.Primary || p.Reference != q.Reference:
		r.tally.fail("batch outputs are not aligned: %s/%s vs %s/%s", q.Primary, q.Reference, p.Primary, p.Reference)
	case q.Relation != want:
		r.tally.fail("BatchCDR(%s, %s) = %v, one-shot Compute-CDR says %v", q.Primary, q.Reference, q.Relation, want)
	case !p.Matrix.ApproxEqual(wantPct, pctTolerance):
		r.tally.fail("BatchPct(%s, %s) = %v, one-shot Compute-CDR%% says %v", q.Primary, q.Reference, p.Matrix, wantPct)
	default:
		r.tally.checked.Add(1)
	}
	return took, qual.Stats, pct.Stats, nil
}

// kernelRound is one pass over the four timed phases.
type kernelRound struct {
	lightUs, heavyUs []float64 // per operation, in time order
	sweepUs          []float64 // per pass over the one-shot sweep
	lodPairsPerS     float64
	lightPrune       float64 // share of light pairs the fast paths answered
	heavyPrune       float64
}

func (r *run) kernelRound(t *tracer, in kernelInputs, lw *core.LoDWorld, round int) (kernelRound, error) {
	var out kernelRound
	rng := rand.New(rand.NewSource(r.seed*16 + int64(round)))
	req := 0
	for _, ph := range []struct {
		name   string
		share  float64
		pick   func(k int) []core.NamedRegion
		sink   *[]float64
		pruned *float64
	}{
		{"light", 0.3, in.scatterWindow, &out.lightUs, &out.lightPrune},
		{"heavy", 0.3, in.clusterGroup, &out.heavyUs, &out.heavyPrune},
	} {
		deadline := time.Now().Add(r.phase(ph.share))
		pairs, pruned := 0, 0
		for k := rng.Intn(1 << 20); time.Now().Before(deadline); k++ {
			regions := ph.pick(k)
			req++
			took, qs, ps, err := r.batchOp(t, ph.name, req, regions, rng)
			if err != nil {
				return out, err
			}
			*ph.sink = append(*ph.sink, float64(took.Nanoseconds())/1e3)
			pairs += 2 * len(regions) * (len(regions) - 1)
			pruned += qs.PruneSingleTile + qs.PruneBand + ps.PrunePctTile + ps.PrunePctPoly
		}
		*ph.pruned = float64(pruned) / float64(pairs)
	}

	// One-shot: Compute-CDR and Compute-CDR% straight on the geometry, no
	// preparation, over primaries of 10²…10⁴ edges. Each pass over the
	// sweep is one repetition.
	for deadline := time.Now().Add(r.phase(0.25)); time.Now().Before(deadline); {
		start := time.Now()
		req++
		root := t.begin("bench.kernel.oneshot", -1, req)
		for _, c := range in.sweep {
			sp := t.begin("core.ComputeCDR", root, req)
			rel, err := core.ComputeCDR(c.A, c.B)
			t.end(sp)
			if err != nil {
				return out, err
			}
			sp = t.begin("core.ComputeCDRPct", root, req)
			m, _, err := core.ComputeCDRPct(c.A, c.B)
			t.end(sp)
			if err != nil {
				return out, err
			}
			// The two algorithms must agree with each other: the tiles
			// with area are the tiles of the relation.
			r.tally.attempted.Add(1)
			if got := m.Relation(0); got != rel {
				r.tally.fail("one-shot %d edges: Compute-CDR says %v, Compute-CDR%% covers %v", c.Edges, rel, got)
			} else {
				r.tally.checked.Add(1)
			}
		}
		t.end(root)
		out.sweepUs = append(out.sweepUs, float64(time.Since(start).Nanoseconds())/1e3)
	}

	// Level-of-detail sweep: rows of the huge world through the staged
	// tier; one row in each call is re-run exactly and must match.
	rows := make([]int, lodRows)
	var lodRates []float64
	for deadline := time.Now().Add(r.phase(0.15)); time.Now().Before(deadline); {
		for i := range rows {
			rows[i] = rng.Intn(lw.Len())
		}
		start := time.Now()
		req++
		root := t.begin("bench.kernel.lod", -1, req)
		sp := t.begin("core.LoDWorld.BatchRows", root, req)
		got, _, err := lw.BatchRows(context.Background(), rows, false)
		t.end(sp)
		t.end(root)
		if err != nil {
			return out, err
		}
		lodRates = append(lodRates, float64(lodRows*(lw.Len()-1))/time.Since(start).Seconds())
		want, _, err := lw.BatchRows(context.Background(), rows[:1], true)
		if err != nil {
			return out, err
		}
		r.tally.attempted.Add(1)
		same := len(got[0]) == len(want[0])
		for j := 0; same && j < len(want[0]); j++ {
			same = got[0][j] == want[0][j]
		}
		if !same {
			r.tally.fail("LoD row %d differs from the exact tier", rows[0])
		} else {
			r.tally.checked.Add(1)
		}
	}
	out.lodPairsPerS = median(lodRates)
	return out, nil
}

func measureKernelBatch(r *run) (map[string]float64, error) {
	in := newKernelInputs(r.seed)
	sweepTotal := 0
	for _, c := range in.sweep {
		sweepTotal += c.Edges
	}
	var setups []time.Duration
	var light, heavy, edges, lod []float64 // per window, over all rounds
	var lightN, heavyN int
	var last kernelRound
	var lastWorld *core.LoDWorld
	for round := 0; round < instances; round++ {
		lw, took, err := kernelSetup(in)
		if err != nil {
			return nil, err
		}
		setups, lastWorld = append(setups, took), lw
		kr, err := r.kernelRound(newTracer(false), in, lw, round)
		if err != nil {
			return nil, err
		}
		light = append(light, windowMedians(kr.lightUs, kernelWindow)...)
		heavy = append(heavy, windowMedians(kr.heavyUs, kernelWindow)...)
		for _, us := range windowMedians(kr.sweepUs, sweepWindow) {
			edges = append(edges, float64(sweepTotal)/us*1e6)
		}
		lod = append(lod, kr.lodPairsPerS)
		lightN += len(kr.lightUs)
		heavyN += len(kr.heavyUs)
		last = kr
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	// The library's footprint is what its user must keep alive to go on
	// asking: the generated regions and the level-of-detail world over them.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(in)
	runtime.KeepAlive(lastWorld)
	m := map[string]float64{
		"setup_s":      medianSeconds(setups),
		"light_p50_us": quietLow(light),
		"heavy_p50_us": quietLow(heavy),
		"closed_per_s": quietHigh(edges),
		"heap_mb":      float64(ms.HeapAlloc) / (1 << 20),
	}
	r.notef("heap_mb is the live heap after a forced collection; rss_mb (peak VmHWM of the harness) %.0f", rss)
	pairsPerOp := float64(2 * kernelBatch * (kernelBatch - 1))
	r.notef("windows of %d operations, %d light and %d heavy; %d windows of %d one-shot sweeps; over all of them: light p50 %.0f us, heavy p50 %.0f us, one-shot %.3g edges/s",
		kernelWindow, len(light), len(heavy), len(edges), sweepWindow, median(light), median(heavy), median(edges))
	r.notef("light: %d ops of %0.f pairs (qual+pct) on Scatter windows, %.1f%% answered by the fast paths; pruned_pairs_per_s=%.4g",
		lightN, pairsPerOp, 100*last.lightPrune, pairsPerOp/m["light_p50_us"]*1e6)
	r.notef("heavy: %d ops of %0.f pairs on Cluster groups, %.1f%% answered by the fast paths; exact_pairs_per_s=%.4g",
		heavyN, pairsPerOp, 100*last.heavyPrune, pairsPerOp/m["heavy_p50_us"]*1e6)
	r.notef("oneshot_ns_per_edge=%.2f (Compute-CDR + Compute-CDR%% over primaries of %v edges)", 1e9/m["closed_per_s"], sweepEdges)
	r.notef("lod_pairs_per_s=%.4g (BatchRows of %d rows over %d regions)", median(lod), lodRows, lodRegions)
	r.notef("setup_s is the median of %d set-ups (PrepareAll of both worlds + PrepareLoDWorld): %v", len(setups), setups)
	if lightN < 1000 || heavyN < 1000 {
		r.notef("WARNING: fewer than 1000 operations behind a figure (light %d, heavy %d)", lightN, heavyN)
	}
	return m, nil
}
