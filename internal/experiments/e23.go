package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// E23HugeWorld measures the huge-world tier (internal/core lod*.go) on the
// two workloads it exists for:
//
//   - A zipfian world (10^5 regions full, 2·10^4 quick; a handful of giant
//     4096-edge coastlines above a long simple tail) swept with sampled
//     all-pairs rows — the 16 giants plus an even stride — through
//     LoDWorld.BatchRows twice: exact-only (every pair through the exact
//     SoA kernel) and the LoD tier stack (coarse single-tile O(1) answers,
//     the strip-localised exact stage, exact fallback). The outputs are
//     asserted bit-identical cell by cell BEFORE any timing; lod_speedup is
//     exact wall-clock over LoD wall-clock, best of three sweeps each. In
//     full mode the experiment itself errors below the 10x acceptance
//     floor.
//   - An urban/rural clustered world ingested into a live RelationStore
//     two ways: one streamed AddBulk call versus the per-region Add loop.
//     The store computes pairs on demand, so both are k Prepares and cost
//     the same wall-clock (both reported); what the bulk path buys is ONE
//     edit — one generation bump, so one ETag/plan-cache invalidation and,
//     above the store, one WAL append and fsync — against the loop's k.
//     That is asserted, not just reported.
//
// Metric suffixes follow the trend-gate convention: *_ms and *_bytes may
// not grow and *_speedup may not shrink beyond the threshold; the
// tier-stack counters (coarse/strip/exact pair counts), the
// build's allocation count and the per-region footprint are informational.
func E23HugeWorld(o Options) (Report, error) {
	g := workload.New(o.Seed)
	nBulk := 2000
	if o.Quick {
		nBulk = 600
	}
	window := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	regions, rows := e23Zipf(g, window, o.Quick)
	n := len(regions)
	metrics := map[string]float64{"n": float64(n), "bulk_regions": float64(nBulk)}

	// What the world costs to build and to keep: allocations during the
	// build, and the live heap it retains beyond its input (after a forced
	// collection on both sides of the build).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	w, err := core.PrepareLoDWorld(regions, core.LoDOptions{})
	if err != nil {
		return Report{}, err
	}
	metrics["build_lod_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&after)
	metrics["lod_build_allocs"] = float64(after.Mallocs - before.Mallocs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	metrics["lod_world_bytes"] = float64(after.HeapAlloc) - float64(before.HeapAlloc)
	metrics["lod_bytes_per_region"] = metrics["lod_world_bytes"] / float64(n)
	// The world references none of the input; without this the collection
	// above would credit it with freeing the rings.
	runtime.KeepAlive(regions)

	metrics["rows"] = float64(len(rows))

	// Result equality first: the tier stack must be a pure optimisation.
	ctx := context.Background()
	exactOut, _, err := w.BatchRows(ctx, rows, true)
	if err != nil {
		return Report{}, err
	}
	lodOut, lodSt, err := w.BatchRows(ctx, rows, false)
	if err != nil {
		return Report{}, err
	}
	for r := range rows {
		for j := 0; j < n; j++ {
			if exactOut[r][j] != lodOut[r][j] {
				return Report{}, fmt.Errorf(
					"E23: LoD answer differs from exact kernel at row %d col %d: %v vs %v",
					rows[r], j, lodOut[r][j], exactOut[r][j])
			}
		}
	}

	// Best-of-four sweeps each side, INTERLEAVED exact/LoD per round: on
	// shared hardware a multi-second CPU-steal burst would otherwise land
	// entirely inside one side's (much shorter) measurement window and
	// wreck the ratio; alternating makes correlated noise hit both sides.
	// The equality pass above already built the lazy strip indexes — the
	// steady state a long-lived world serves.
	sweep := func(exact bool) float64 {
		t := time.Now()
		if _, _, err := w.BatchRows(ctx, rows, exact); err != nil {
			panic(err)
		}
		return float64(time.Since(t).Nanoseconds())
	}
	nsExact, nsLoD := 0.0, 0.0
	for i := 0; i < 4; i++ {
		if d := sweep(true); nsExact == 0 || d < nsExact {
			nsExact = d
		}
		if d := sweep(false); nsLoD == 0 || d < nsLoD {
			nsLoD = d
		}
	}
	speedup := nsExact / nsLoD
	metrics["exact_sweep_ms"] = nsExact / 1e6
	metrics["lod_sweep_ms"] = nsLoD / 1e6
	metrics["lod_speedup"] = speedup
	metrics["pairs_coarse"] = float64(lodSt.CoarseSingleTile)
	metrics["pairs_strip"] = float64(lodSt.LoDStrip)
	metrics["pairs_exact_fallback"] = float64(lodSt.LoDExact)
	if !o.Quick && speedup < 10 {
		return Report{}, fmt.Errorf(
			"E23: LoD tier speedup %.1fx on the %d-region zipfian world, want >= 10x", speedup, n)
	}

	// Streamed bulk ingest: an urban/rural clustered batch into a live
	// store, AddBulk versus the per-region Add loop. Both sides start from
	// an identical seeded store; the batch is everything past the seed.
	clustered := g.UrbanRural(window, nBulk, nBulk/40, 8)
	bulkRegions := make([]core.NamedRegion, nBulk)
	for i, r := range clustered {
		bulkRegions[i] = core.NamedRegion{Name: fmt.Sprintf("u%05d", i), Region: r}
	}
	seedN := nBulk / 4
	mkStore := func() (*core.RelationStore, error) {
		return core.NewRelationStore(bulkRegions[:seedN], core.StoreOptions{})
	}
	bulkBest, loopBest := 0.0, 0.0
	var bulkGens, loopGens uint64
	for i := 0; i < 2; i++ {
		st, err := mkStore()
		if err != nil {
			return Report{}, err
		}
		t := time.Now()
		if err := st.AddBulk(bulkRegions[seedN:]); err != nil {
			return Report{}, err
		}
		if d := float64(time.Since(t).Nanoseconds()); bulkBest == 0 || d < bulkBest {
			bulkBest = d
		}
		bulkGens = st.Generation()

		st, err = mkStore()
		if err != nil {
			return Report{}, err
		}
		t = time.Now()
		for _, r := range bulkRegions[seedN:] {
			if err := st.Add(r.Name, r.Region); err != nil {
				return Report{}, err
			}
		}
		if d := float64(time.Since(t).Nanoseconds()); loopBest == 0 || d < loopBest {
			loopBest = d
		}
		loopGens = st.Generation()
	}
	// The acceptance assertion: the whole batch is one edit.
	if bulkGens != 1 || loopGens != uint64(nBulk-seedN) {
		return Report{}, fmt.Errorf(
			"E23: AddBulk of %d regions moved the generation by %d and the Add loop by %d, want 1 and %d",
			nBulk-seedN, bulkGens, loopGens, nBulk-seedN)
	}
	metrics["bulk_ingest_ms"] = bulkBest / 1e6
	metrics["add_loop_ms"] = loopBest / 1e6

	decided := lodSt.CoarseSingleTile + lodSt.LoDStrip + lodSt.LoDExact
	body := fmt.Sprintf("zipfian world, %d regions (max 4096 edges): built in %.1f ms and %.0f allocations,\nretaining %.0f B/region beyond its input; %d sampled all-pairs rows,\nresults asserted bit-identical to the exact kernel before timing:\n",
		n, metrics["build_lod_ms"], metrics["lod_build_allocs"], metrics["lod_bytes_per_region"], len(rows))
	body += Table(
		[]string{"sweep", "wall-clock", "speedup"},
		[][]string{
			{"exact-only", fmt.Sprintf("%.1f ms", nsExact/1e6), "1.0x"},
			{"LoD tier stack", fmt.Sprintf("%.1f ms", nsLoD/1e6), fmt.Sprintf("%.1fx", speedup)},
		},
	)
	body += "\npairs by deciding tier (LoD sweep):\n"
	body += Table(
		[]string{"tier", "pairs", "share"},
		[][]string{
			{"coarse single-tile (O(1))", fmt.Sprint(lodSt.CoarseSingleTile), fmt.Sprintf("%.2f%%", 100*float64(lodSt.CoarseSingleTile)/float64(decided))},
			{"strip-localised exact", fmt.Sprint(lodSt.LoDStrip), fmt.Sprintf("%.2f%%", 100*float64(lodSt.LoDStrip)/float64(decided))},
			{"exact fallback", fmt.Sprint(lodSt.LoDExact), fmt.Sprintf("%.2f%%", 100*float64(lodSt.LoDExact)/float64(decided))},
		},
	)
	body += fmt.Sprintf("\nstreamed bulk ingest, urban/rural clustered world (%d regions into a %d-region store):\n", nBulk-seedN, seedN)
	body += Table(
		[]string{"path", "wall-clock", "edits (generation bumps)"},
		[][]string{
			{"AddBulk (one batch)", fmt.Sprintf("%.1f ms", bulkBest/1e6), fmt.Sprint(bulkGens)},
			{"per-region Add loop", fmt.Sprintf("%.1f ms", loopBest/1e6), fmt.Sprint(loopGens)},
		},
	)
	body += "\nevery LoD-tier answer is bit-identical to the exact kernel (also fuzzed:\nFuzzLoDDifferential)\n"
	return Report{
		ID:      "E23",
		Title:   "Huge-world tier: LoD stack vs exact-only, streamed bulk ingest",
		Body:    body,
		Metrics: metrics,
	}, nil
}

// e23Zipf is E23's zipfian world and the rows it sweeps: every giant, where
// all-pairs cost concentrates, plus an even stride through the tail.
func e23Zipf(g *workload.Generator, window geom.Rect, quick bool) (regions []core.NamedRegion, rows []int) {
	n := 100000
	if quick {
		n = 20000
	}
	regions = make([]core.NamedRegion, n)
	for i, r := range g.Zipf(window, n, 4096) {
		regions[i] = core.NamedRegion{Name: fmt.Sprintf("z%06d", i), Region: r}
	}
	for i := 0; i < 16 && i < n; i++ {
		rows = append(rows, i)
	}
	for i := 16; i < n; i += n / 48 {
		rows = append(rows, i)
	}
	return regions, rows
}
