package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"syscall"
	"time"
)

// The measured time of a daemon workload is split into these shares: the
// open-loop step the latency metrics are read from, a second open-loop step
// at twice the rate (what the daemon does when pushed), and a closed loop.
const (
	shareMain   = 0.65
	shareStep   = 0.10
	shareClosed = 0.25
	// warmUp runs the main mix before anything is timed: connections
	// opened, plan cache filled, heap grown.
	warmUp = 700 * time.Millisecond
	// senders is both the number of sender goroutines and the number of
	// connections: two, because the box has two cores and the daemons need
	// the other one.
	senders = 2
	// instances is how many times a run starts its daemons afresh, each
	// instance taking an equal share of the measured time: set-up is timed
	// on every start, and every load metric is taken per instance.
	instances = 5
	// windowSeconds is the least an open-loop window lasts, and closedParts
	// the number of blocks each client's closed loop is cut into; see
	// quietPercentile.
	windowSeconds = 0.5
	closedParts   = 5
	// latencyLimitUs is the p99 limit of the rate ladder.
	latencyLimitUs = 10_000
)

// loadPlan is the traffic of one daemon workload.
type loadPlan struct {
	rate  float64 // open-loop requests per second of the main step
	mix   []mixEntry
	heavy func(k opKind) bool // the workload's expensive operation class
	// keepAwake asks for the spinner on the daemons' CPU during the open
	// loop; see fleet.keepAwake.
	keepAwake bool
}

// loadOutcome is what the phases measured.
type loadOutcome struct {
	main, step openResult
	closed     closedResult
	// loadgenCPU is the harness's own CPU time over the wall time of the
	// main step, as a share of one core; a generator that needs most of a
	// core is measuring itself.
	loadgenCPU float64
	// daemonCPU is the same for the daemons (summed), the utilisation the
	// latencies were measured at.
	daemonCPU float64
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// drive runs warm-up, the main open-loop step, the doubled step and the
// closed loop against the wire.
func (r *run) drive(w *wire, plan loadPlan, instance int64, daemons ...*daemon) loadOutcome {
	rng := rand.New(rand.NewSource(r.seed*16 + instance))
	clk := realClock{}
	// The open loop leaves the daemons' CPU idle most of the time; the
	// closed loop does not, and a spinner would only be in its way.
	asleep := func() {}
	if plan.keepAwake {
		var awake bool
		if asleep, awake = r.fleet.keepAwake(); !awake && instance == 0 {
			r.notef("NOT KEPT AWAKE: no spinner (unpinned, or idle priority refused); the daemon's CPU halts between requests")
		}
	}
	runOpen(clk, schedule(rng, plan.rate, warmUp, plan.mix), senders, w.do)

	var out loadOutcome
	cpu0, dcpu0 := selfCPUSeconds(), daemonCPUSeconds(daemons)
	out.main = runOpen(clk, schedule(rng, plan.rate, r.phase(shareMain), plan.mix), senders, w.do)
	wall := out.main.elapsed.Seconds()
	out.loadgenCPU = (selfCPUSeconds() - cpu0) / wall
	out.daemonCPU = (daemonCPUSeconds(daemons) - dcpu0) / wall

	out.step = runOpen(clk, schedule(rng, 2*plan.rate, r.phase(shareStep), plan.mix), senders, w.do)
	asleep()

	dealers := make([]*dealer, senders)
	for i := range dealers {
		dealers[i] = newDealer(rand.New(rand.NewSource(r.seed*1000+instance*10+int64(i))), plan.mix)
	}
	out.closed = runClosed(clk, r.phase(shareClosed), senders, func(c int) op {
		return dealers[c].deal()
	}, w.do)
	return out
}

func daemonCPUSeconds(daemons []*daemon) float64 {
	sum := 0.0
	for _, d := range daemons {
		if v, err := cpuSeconds(d.cmd.Process.Pid); err == nil {
			sum += v
		}
	}
	return sum
}

// windowP50s cuts the samples of an open-loop phase, which are in due-time
// order, into windows of n operations and returns the median latency (µs)
// of the kept samples of each.
func windowP50s(samples []sample, n int, keep func(sample) bool) []float64 {
	var out []float64
	for i := 0; i+n <= len(samples); i += n {
		if vs := micros(samples[i:i+n], keep, latencyOf); len(vs) > 0 {
			out = append(out, median(vs))
		}
	}
	return out
}

// report reduces the instances of a run to the three load metrics and notes
// everything else a reader wants beside them, from the pooled samples. Each
// metric is the figure of the run's quiet windows (quietPercentile): on a
// shared host, interference from outside the guest comes and goes by the
// half second and only ever slows a window down, so the fast end of the
// windows is the least disturbed measurement of the code. An open-loop
// window is a whole number of decks of the mix lasting half a second or
// more; the closed loop is cut into closedParts blocks per client.
func (r *run) report(outs []loadOutcome, plan loadPlan) map[string]float64 {
	okLight := func(s sample) bool { return !s.failed && !plan.heavy(s.kind) }
	okHeavy := func(s sample) bool { return !s.failed && plan.heavy(s.kind) }
	deck := deckSize(plan.mix)
	window := int(math.Ceil(plan.rate*windowSeconds/float64(deck))) * deck
	var lightP50, heavyP50, closed []float64
	var main, step []sample
	var loadgenCPU, daemonCPU float64
	backlogMax, closedN := 0, 0
	mainGrowing, stepGrowing := false, false
	for _, out := range outs {
		lightP50 = append(lightP50, windowP50s(out.main.samples, window, okLight)...)
		heavyP50 = append(heavyP50, windowP50s(out.main.samples, window, okHeavy)...)
		closed = append(closed, out.closed.blockRates(deck, closedParts)...)
		main = append(main, out.main.samples...)
		step = append(step, out.step.samples...)
		loadgenCPU += out.loadgenCPU / float64(len(outs))
		daemonCPU += out.daemonCPU / float64(len(outs))
		if out.main.backlogMax > backlogMax {
			backlogMax = out.main.backlogMax
		}
		mainGrowing = mainGrowing || out.main.growing()
		stepGrowing = stepGrowing || out.step.growing()
		closedN += len(out.closed.samples)
	}
	r.notef("windows of %d operations (%.2f s), %d of them: light p50 %.0f us", window, float64(window)/plan.rate, len(lightP50), lightP50)
	r.notef("  heavy p50 %.0f us", heavyP50)
	r.notef("closed loop in %d blocks: %.0f /s", len(closed), closed)

	light, heavy := summarise(micros(main, okLight, latencyOf)), summarise(micros(main, okHeavy, latencyOf))
	r.notef("main step %.0f req/s, %d instances pooled: light n=%d p50=%.0fus p99=%.0fus p%g=%.0fus | heavy n=%d p50=%.0fus p99=%.0fus",
		plan.rate, len(outs), light.N, light.P50, light.P99, light.TailP, light.Tail, heavy.N, heavy.P50, heavy.P99)
	if heavy.N < 1000 || light.N < 1000 {
		r.notef("WARNING: fewer than 1000 samples behind a p99 (light %d, heavy %d)", light.N, heavy.N)
	}
	byClass := map[string][]float64{}
	for _, s := range main {
		if !s.failed {
			byClass[s.kind.class()] = append(byClass[s.kind.class()], float64(s.latency.Nanoseconds())/1e3)
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		d := summarise(byClass[c])
		r.notef("  class %-13s n=%-5d p50=%8.0fus p99=%8.0fus", c, d.N, d.P50, d.P99)
	}

	steps := []ladderStep{stepVerdict(plan.rate, main, mainGrowing), stepVerdict(2*plan.rate, step, stepGrowing)}
	r.notef("rate ladder: %s; max_rate_rps=%.0f (p99 limit %dus)", describeSteps(steps), maxRate(steps, latencyLimitUs), latencyLimitUs)
	// A sender that was still busy when an operation fell due is the
	// connection's queue, and belongs in the latency; how late an idle
	// sender woke up is the generator's own error.
	idleLate := summarise(micros(main, func(s sample) bool { return s.waited }, lateOf))
	r.notef("generator: idle senders woke late by p50=%.0fus p99=%.0fus; backlog max %d, growing %v; loadgen_cpu_share=%.2f daemon_cpu_share=%.2f",
		idleLate.P50, idleLate.P99, backlogMax, mainGrowing, loadgenCPU, daemonCPU)
	if idleLate.P99 > 1000 || loadgenCPU > 0.5 {
		r.notef("INVALID AS A MEASUREMENT: generator lateness p99 over 1ms or generator CPU over half a core")
	}
	r.notef("closed loop: %d clients, %d requests", senders, closedN)

	return map[string]float64{
		"light_p50_us": quietLow(lightP50),
		"heavy_p50_us": quietLow(heavyP50),
		"closed_per_s": quietHigh(closed),
	}
}

func stepVerdict(rate float64, samples []sample, growing bool) ladderStep {
	failed := 0
	for _, s := range samples {
		if s.failed {
			failed++
		}
	}
	all := micros(samples, func(s sample) bool { return !s.failed }, latencyOf)
	return ladderStep{rate: rate, p99Us: percentile(sortedCopy(all), 99), failed: failed, growing: growing}
}

func describeSteps(steps []ladderStep) string {
	s := ""
	for i, st := range steps {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.0f/s p99=%.0fus failed=%d growing=%v", st.rate, st.p99Us, st.failed, st.growing)
	}
	return s
}

// instanceLog collects what each instance of a daemon workload measured.
type instanceLog struct {
	outs       []loadOutcome
	setups     []time.Duration
	heaps, rss []float64 // MiB, summed over the instance's daemons
}

func (l *instanceLog) add(out loadOutcome, setup time.Duration, heap, rss float64) {
	l.outs, l.setups = append(l.outs, out), append(l.setups, setup)
	l.heaps, l.rss = append(l.heaps, heap), append(l.rss, rss)
}

// finish reduces the instances to the workload's end-to-end metrics; setUp
// says what one set-up of this workload consists of.
func (r *run) finish(l *instanceLog, plan loadPlan, setUp string) map[string]float64 {
	m := r.report(l.outs, plan)
	m["setup_s"] = medianSeconds(l.setups)
	m["heap_mb"] = median(l.heaps)
	r.notef("setup_s is the median of %d set-ups (%s): %v", len(l.setups), setUp, l.setups)
	r.notef("heap_mb is the median of %.1f MiB; rss_mb (peak VmHWM) per instance %.0f", l.heaps, l.rss)
	return m
}

// liveHeap sums the live heaps of daemons.
func liveHeap(client *http.Client, daemons ...*daemon) (float64, error) {
	sum := 0.0
	for _, d := range daemons {
		v, err := d.liveHeapMiB(client)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// medianSeconds is the set-up metric: the median of several set-ups.
func medianSeconds(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}
