package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// layers are the packages the traced run attributes time to; bench is the
// harness's own work between the calls it wraps.
var layers = []string{"serve", "query", "index", "core", "geom", "config", "persist", "wal", "replica", "reason", "bench"}

// allClasses is the mix of the probe replay: every operation class, in
// shares that give each enough samples for a median.
var allClasses = []mixEntry{
	{opRelation, 10}, {opRelationPct, 10}, {opSelect, 10}, {opQueryHit, 10}, {opQueryMiss, 4},
	{opRegionGet, 8}, {opNotModified, 8}, {opPut, 20}, {opAdd, 7}, {opDelete, 6}, {opRename, 7},
}

// budgetClasses are the classes whose budget residual is reported.
var budgetClasses = []string{"relation", "select", "query", "region_put"}

func drawOps(seed int64, n int, mix []mixEntry) []op {
	d := newDealer(rand.New(rand.NewSource(seed)), mix)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = d.deal()
	}
	return ops
}

// spanTimes groups span durations (ns) by name, and root self times by name.
func spanTimes(spans []span) (dur, rootSelf map[string][]float64) {
	dur, rootSelf = map[string][]float64{}, map[string][]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.dur()))
		if s.Parent < 0 {
			rootSelf[s.Name] = append(rootSelf[s.Name], float64(self[s.ID]))
		}
	}
	return dur, rootSelf
}

// probeSuite measures every workload-independent per-layer metric: the
// probes of each layer's functions, one wire session, and a traced replay
// of the all-classes mix on a durable node.
func (r *run) probeSuite() (map[string]float64, error) {
	m := map[string]float64{}
	dir := filepath.Join(r.workDir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "probes.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	logger := slog.New(slog.NewTextHandler(logFile, nil))

	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"core", func() error { return coreProbes(r.seed, m) }},
		{"geom and config", func() error { return formatProbes(r.seed, m) }},
		{"wal", func() error { return walProbes(r.seed, dir, m) }},
		{"persist", func() error { return persistProbes(r.seed, dir, logger, m) }},
		{"replica", func() error { return replicaProbes(r.seed, logger, m) }},
		{"reason", func() error { return reasonProbes(r.seed, m) }},
		{"wire", func() error { return r.wireProbe(r.seed, m) }},
	} {
		start := time.Now()
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("%s probes: %w", step.name, err)
		}
		r.notef("probes: %-15s %.1fs", step.name, time.Since(start).Seconds())
	}

	start := time.Now()
	t := newTracer(true)
	stats, err := r.replay("probe-replay", probeWorld(r.seed), drawOps(r.seed+29, int(75*r.seconds), allClasses), true, t)
	if err != nil {
		return nil, fmt.Errorf("probe replay: %w", err)
	}
	r.notef("probes: %-15s %.1fs (%d spans)", "all-classes replay", time.Since(start).Seconds(), len(t.spans))
	dur, rootSelf := spanTimes(t.spans)
	us := func(name string) float64 { return median(dur[name]) / 1e3 }
	for _, kind := range tracedClasses {
		c := kind.class()
		m["serve.handler_us."+c] = us("serve.handler." + c)
		m["serve.self_us."+c] = median(rootSelf["serve.handler."+c]) / 1e3
	}
	m["serve.wire_overhead_us"] = m["serve.p50_us.relation"] - m["serve.handler_us.relation"]
	m["core.store_relation_ns"] = median(dur["core.RelationStore.Relation"])
	m["core.store_percent_ns"] = median(dur["core.RelationStore.Percent"])
	m["core.store_set_us"] = us("core.RelationStore.SetGeometry")
	m["core.store_add_us"] = us("core.RelationStore.Add")
	m["core.store_remove_us"] = us("core.RelationStore.Remove")
	m["core.store_rename_us"] = us("core.RelationStore.Rename")
	m["core.delta_pairs_per_edit"] = float64(stats.deltaPairs) / float64(stats.recomputes)
	m["index.select_us"] = us("index.Live.Select")
	m["index.set_us"] = us("index.Live.SetGeometry")
	m["index.candidates_per_match"] = float64(stats.candidates) / float64(stats.matched)
	m["index.exact_per_match"] = float64(stats.exact) / float64(stats.matched)
	m["config.tracked_set_us"] = us("config.Tracked.SetRegionGeometry")
	m["config.tracked_add_us"] = us("config.Tracked.AddRegion")
	m["query.new_evaluator_us"] = us("query.NewEvaluator")
	m["query.run_hit_us"] = us("query.Evaluator.Run.hit")
	m["query.run_miss_us"] = us("query.Evaluator.Run.miss")
	m["query.run_replan_us"] = us("query.Evaluator.Run.replan")
	p := stats.plans
	m["query.plan_cache_hit_share"] = float64(p.Hits) / float64(p.Hits+p.Misses+p.Replans)
	m["query.bindings_per_run"] = float64(stats.bindings) / float64(stats.queries)
	m["persist.edit_us"] = us("persist.Store.SetRegionGeometry")
	m["replica.primary_edit_us"] = us("replica.Primary.SetRegionGeometry")

	bs := budgets(t.spans)
	r.notef("layer budget, all-classes replay on the probe world (%d regions, durable):", editRegions)
	for _, line := range formatBudgets(bs, layers[:9]) {
		r.notef("  %s", line)
	}
	for _, b := range bs {
		sum := 0.0
		for _, v := range b.layerUs {
			sum += v
		}
		residual := (b.rootUs - sum) / b.rootUs
		if residual < 0 {
			residual = -residual
		}
		for _, c := range budgetClasses {
			if b.class == "serve.handler."+c {
				m["bench.budget_residual_share."+c] = residual
			}
		}
	}
	return m, nil
}

// finishTrace writes the trace file, notes the budget table of the
// workload's own replay and adds the workload-specific metrics — each
// layer's share of the traced time — to the probe suite's.
func (r *run) finishTrace(workload string, t *tracer, ops int, overhead float64) (map[string]float64, error) {
	path, err := writeTrace(r.outDir, workload, r.seed, t.spans)
	if err != nil {
		return nil, err
	}
	r.notef("trace: %d operations, %d spans written to %s", ops, len(t.spans), path)
	r.notef("layer budget of this workload's own operations:")
	for _, line := range formatBudgets(budgets(t.spans), layers) {
		r.notef("  %s", line)
	}
	shares := layerShares(t.spans)
	m, err := r.probeSuite()
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		m["trace.share."+l] = shares[l]
	}
	m["trace.ops"] = float64(ops)
	m["bench.trace_overhead_share"] = overhead
	return m, nil
}

// traceDaemonWorkload replays the first operations of a daemon workload's
// mix in-process, once untraced and once traced.
func (r *run) traceDaemonWorkload(name string, mkWorld func() *world, plan loadPlan, durable bool) (map[string]float64, error) {
	ops := drawOps(r.seed, int(100*r.seconds), plan.mix)
	plain, err := r.replay(name+"-untraced", mkWorld(), ops, durable, newTracer(false))
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	start := time.Now()
	traced, err := r.replay(name+"-traced", mkWorld(), ops, durable, t)
	if err != nil {
		return nil, err
	}
	r.notef("replay: handlers took %.2fs untraced, %.2fs traced; the traced pass with its shadow calls took %.2fs",
		float64(plain.handlerNs)/1e9, float64(traced.handlerNs)/1e9, time.Since(start).Seconds())
	// The overhead of tracing is what it adds to the thing traced: the
	// handlers' own time with spans and shadow instances around, over their
	// time without.
	overhead := float64(traced.handlerNs-plain.handlerNs) / float64(plain.handlerNs)
	return r.finishTrace(name, t, len(ops), overhead)
}

func traceReadMix(r *run) (map[string]float64, error) {
	mk := func() *world { return newWorld(r.seed, readMixRegions, readMixGroups, readMixEdges) }
	return r.traceDaemonWorkload("read-mix", mk, readMix, false)
}

func traceEditDurable(r *run) (map[string]float64, error) {
	return r.traceDaemonWorkload("edit-durable", func() *world { return probeWorld(r.seed) }, editDurable, true)
}

func traceReplicated(r *run) (map[string]float64, error) {
	mk := func() *world { return newWorld(r.seed, replRegions, replGroups, replEdges) }
	return r.traceDaemonWorkload("replicated", mk, replicated, true)
}

// traceKernelBatch runs one round of the library workload untraced and one
// traced, with spans around every call into core.
func traceKernelBatch(r *run) (map[string]float64, error) {
	in := newKernelInputs(r.seed)
	lw, _, err := kernelSetup(in)
	if err != nil {
		return nil, err
	}
	plain, err := r.kernelRound(newTracer(false), in, lw, 0)
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	traced, err := r.kernelRound(t, in, lw, 0)
	if err != nil {
		return nil, err
	}
	overhead := (median(traced.heavyUs) - median(plain.heavyUs)) / median(plain.heavyUs)
	return r.finishTrace("kernel-batch", t, len(traced.lightUs)+len(traced.heavyUs), overhead)
}
