// Command bench is the repo's benchmark: one open-loop harness that drives
// the real cardirectd binary (and, for the library workload, the core
// package in-process) under four named workloads, checks every answer it
// samples against a from-scratch Compute-CDR oracle, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics of a traced
// in-process run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// run is the state of one benchmark invocation.
type run struct {
	seed    int64
	seconds float64
	workDir string // scratch for this invocation, removed on exit
	outDir  string // trace files
	fleet   *fleet
	tally   *tally
	// notes are the diagnostics a workload wants printed beside the
	// metrics: sample counts, per-class latencies, generator lateness.
	notes []string
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase scales a share of the measured time to a duration.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(share * r.seconds / instances * float64(time.Second))
}

// benchWorkload is one named benchmark workload: measure produces the end-to-end
// metrics, trace the per-layer ones.
type benchWorkload struct {
	name    string
	measure func(r *run) (map[string]float64, error)
	trace   func(r *run) (map[string]float64, error)
}

var workloads = []benchWorkload{
	{"read-mix", measureReadMix, traceReadMix},
	{"edit-durable", measureEditDurable, traceEditDurable},
	{"kernel-batch", measureKernelBatch, traceKernelBatch},
	{"replicated", measureReplicated, traceReplicated},
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		root     = flag.String("root", "..", "the checkout: where cmd/cardirectd was built from and .bench_build lives")
		name     = flag.String("workload", "all", "workload to run: read-mix, edit-durable, kernel-batch, replicated, or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 25, "measured seconds per workload")
		traceArg = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced in-process run, per-layer metrics")
		out      = flag.String("out", "", "directory for trace-<workload>.json (default <root>/.bench_build/out)")
		spinner  = flag.Bool("spin", false, "internal: be a spinner (see keepAwake)")
	)
	flag.Parse()
	if *spinner {
		return spin()
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	build := filepath.Join(abs, ".bench_build")
	bin := filepath.Join(build, "cardirectd")
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintf(os.Stderr, "bench: no cardirectd binary at %s (run bench/run.sh, which builds it): %v\n", bin, err)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	var selected []benchWorkload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	pin := pinHarness()
	code := 0
	var all []json.RawMessage
	for _, w := range selected {
		line, ok := runWorkload(w, abs, bin, *out, pin, *seed, *seconds, *traceArg == 1)
		if !ok {
			code = 1
		}
		if line != nil {
			all = append(all, line)
			fmt.Println(string(line))
		}
	}
	if *name == "all" {
		// The all-workloads form is for people, not the driver: it ends with
		// a summary that states this harness measures and claims nothing.
		summary, _ := json.Marshal(struct {
			Workloads []json.RawMessage `json:"workloads"`
			Claim     *string           `json:"claim"`
		}{Workloads: all})
		fmt.Println(string(summary))
	}
	return code
}

// runWorkload runs one workload in its own scratch directory and returns
// the result line. Whatever happens, every daemon it started is stopped and
// the scratch directory is removed before it returns.
func runWorkload(w benchWorkload, root, bin, outDir string, pin pinning, seed int64, seconds float64, traced bool) (line []byte, ok bool) {
	workDir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	r := &run{
		seed: seed, seconds: seconds, workDir: workDir, outDir: outDir,
		fleet: &fleet{bin: bin, logDir: workDir, pin: pin}, tally: &tally{},
	}
	if pin.on {
		r.notef("pinned: harness on CPU %d, daemons on CPU %d", pin.harnessCPU, pin.daemonCPU)
	} else {
		r.notef("NOT PINNED: fewer than two CPUs allowed; expect the numbers to repeat less well")
	}
	// A signal must not leave daemons behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopSig := make(chan struct{})
	go func() {
		select {
		case <-sig:
			r.fleet.killAll()
			os.RemoveAll(workDir)
			os.Exit(130)
		case <-stopSig:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(stopSig)
		r.fleet.killAll()
		if ok {
			os.RemoveAll(workDir)
		} else {
			// Keep the daemon logs of a failed run where the error
			// messages point.
			fmt.Fprintf(os.Stderr, "bench: %s failed; logs kept in %s\n", w.name, workDir)
		}
	}()

	started := time.Now()
	fn, units := w.measure, endToEndUnits
	if traced {
		fn, units = w.trace, perLayerUnits
	}
	values, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return nil, false
	}
	res := result{
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, unit := range units {
		v, present := values[name]
		if !present {
			fmt.Fprintf(os.Stderr, "bench: %s did not report %s\n", w.name, name)
			return nil, false
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	printReport(w.name, seed, seconds, traced, time.Since(started), res, r)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	return line, res.Correct
}

// printReport writes the human-readable account to stderr; stdout carries
// only the result lines.
func printReport(name string, seed int64, seconds float64, traced bool, took time.Duration, res result, r *run) {
	mode := "end-to-end"
	if traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(os.Stderr, "== %s  seed %d  %gs measured, %.1fs wall  (%s)\n", name, seed, seconds, took.Seconds(), mode)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "   %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fail := 0.0
	if res.Attempted > 0 {
		fail = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "   attempted %d  failed %d  fail_share %g  (oracle-checked %d, unjudged %d)\n",
		res.Attempted, res.Failed, fail, r.tally.checked.Load(), r.tally.unjudged.Load())
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "   "+n)
	}
}
