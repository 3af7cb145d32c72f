// Command cdrbench runs the reproduction's experiment suite (DESIGN.md §3)
// and prints one paper-shaped table or summary per experiment:
//
//	E1–E3  edge inflation (paper Fig. 3b, Fig. 3c, Example 3)
//	E4–E5  linear scaling of Compute-CDR and Compute-CDR% (Theorems 1–2)
//	E6–E7  Compute-CDR(%) vs polygon-clipping baselines (§5 future work #1)
//	E8     single pass vs nine passes (instrumented)
//	E9     the Peloponnesian-war configuration (Fig. 11/12)
//	E10–E12 inverse, composition, network consistency (the "handling" side)
//	E13    the §4 example query
//	E14    expressiveness vs point/MBB approximations
//	E15    intersection-computation counts
//	E16    R-tree-accelerated directional selection (extension)
//	E17    directions + topology + distance (future work #2)
//	E18    all-pairs batch engine: sequential vs MBB-pruned vs parallel
//	E19    zero-allocation percent batch × R-tree query pruning
//	E20    relation store: single edit + re-read of touched pairs vs full recompute
//	E21    raw-speed suite: SoA kernel, binary recovery, HTTP tail latency
//	E22    cost-based query planner vs written order; plan cache warm vs cold
//	E23    huge-world tier: LoD stack vs exact-only; streamed bulk ingest
//	E24    reasoning pipeline: parallel solver, fragment fast path, joint RCC-8
//	E25    replication: WAL catch-up vs rebuild, router fan-out, bounded staleness
//
// Usage:
//
//	cdrbench [-quick] [-seed N] [-only E9] [-json] [-out DIR] [-compare BASELINE.json] [-threshold 0.15]
//
// With -json, each experiment that reports machine-readable metrics also
// writes them to BENCH_<id>.json — BENCH_<id>_quick.json for -quick runs —
// under -out (default baselines/, the committed-baseline directory; "." for
// the old scatter-into-cwd behaviour). Each file carries the metrics
// (ns/op, allocs/op, prune rates) stamped with the run environment (Go
// version, GOMAXPROCS, GOOS/GOARCH, VCS revision) for CI trend tracking.
//
// With -compare, each experiment's metrics are additionally checked against
// the named baseline JSON: timing and size metrics (keys ending in _ns, _us,
// _ms or _bytes) may not grow by more than the threshold fraction, and
// speedup metrics (keys ending in _speedup) may not shrink by more than it. Any violation
// makes the run exit nonzero — the `make bench-trend` regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"cardirect/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdrbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "smaller workloads, faster run")
	seed := fs.Int64("seed", 20040314, "workload seed")
	only := fs.String("only", "", "run a single experiment id (e.g. E9 or E4-E5)")
	jsonOut := fs.Bool("json", false, "write BENCH_<id>.json per experiment with metrics")
	outDir := fs.String("out", "baselines", "directory for -json output files")
	compare := fs.String("compare", "", "baseline BENCH_<id>.json to check metrics against")
	threshold := fs.Float64("threshold", 0.15, "allowed fractional regression vs -compare baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var baseline *benchFile
	if *compare != "" {
		b, err := readBenchJSON(*compare)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		baseline = b
	}
	o := experiments.Options{Quick: *quick, Seed: *seed}
	matched := false
	compared := false
	var regressions []string
	for _, e := range experiments.Entries(o) {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		matched = true
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n%s\n", r.ID, r.Title, r.Body)
		if *jsonOut && len(r.Metrics) > 0 {
			if err := writeBenchJSON(*outDir, r, *quick); err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
		}
		if baseline != nil && baseline.ID == r.ID {
			compared = true
			found, err := compareMetrics(stdout, r, baseline, *quick, *threshold)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			regressions = append(regressions, found...)
		}
	}
	if *only != "" && !matched {
		return fmt.Errorf("unknown experiment %q (known: %s)", *only, strings.Join(experiments.IDs(), ", "))
	}
	if baseline != nil && !compared {
		return fmt.Errorf("baseline is for %s, which this invocation did not run", baseline.ID)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%:\n  %s",
			len(regressions), *threshold*100, strings.Join(regressions, "\n  "))
	}
	return nil
}

// benchFile is the BENCH_<id>.json schema: the experiment's metrics plus
// the environment they were measured in.
type benchFile struct {
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Quick      bool               `json:"quick"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Revision   string             `json:"revision"`
	Metrics    map[string]float64 `json:"metrics"`
}

// writeBenchJSON serialises one experiment's metrics to
// dir/BENCH_<id>.json (BENCH_<id>_quick.json for quick runs, so full and
// quick baselines coexist). The id is sanitised for the filesystem
// (E1-E3 → BENCH_E1-E3.json is fine; anything stranger degrades to
// underscores); the directory is created if missing.
func writeBenchJSON(dir string, r experiments.Report, quick bool) error {
	id := strings.Map(func(c rune) rune {
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		}
		return '_'
	}, r.ID)
	payload := benchFile{
		ID:         r.ID,
		Title:      r.Title,
		Quick:      quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Revision:   vcsRevision(),
		Metrics:    r.Metrics,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + id + ".json"
	if quick {
		name = "BENCH_" + id + "_quick.json"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func readBenchJSON(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.ID == "" || b.Metrics == nil {
		return nil, fmt.Errorf("%s: not a cdrbench baseline (no id or metrics)", path)
	}
	return &b, nil
}

// vcsRevision reports the source revision: the vcs.revision build setting
// when the binary carries one (module-aware builds do), `git rev-parse`
// when run inside a checkout, "unknown" otherwise.
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// compareMetrics checks a run's metrics against a baseline and returns the
// regressions found. Timing and size keys (suffix _ns, _us, _ms, _bytes)
// regress when they grow past baseline*(1+threshold); speedup keys (suffix
// _speedup) regress when they shrink below baseline*(1-threshold). Other
// keys (counts, percentiles without a unit suffix) are informational. Comparing runs of
// different modes (quick vs full) is an error, not a silently meaningless
// diff.
func compareMetrics(stdout io.Writer, r experiments.Report, base *benchFile, quick bool, threshold float64) ([]string, error) {
	if base.Quick != quick {
		return nil, fmt.Errorf("baseline was recorded in %s mode but this run is %s: re-record the baseline or match the mode",
			mode(base.Quick), mode(quick))
	}
	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regressions []string
	for _, k := range keys {
		cost := hasSuffixAny(k, "_ns", "_us", "_ms", "_bytes")
		speedup := strings.HasSuffix(k, "_speedup")
		if !cost && !speedup {
			continue // informational metric (counts): not gated
		}
		baseVal := base.Metrics[k]
		cur, ok := r.Metrics[k]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: metric disappeared from the run (baseline %.3f)", k, baseVal))
			continue
		}
		switch {
		case cost:
			if baseVal > 0 && cur > baseVal*(1+threshold) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.3f vs baseline %.3f (+%.1f%%, limit +%.0f%%)",
					k, cur, baseVal, (cur/baseVal-1)*100, threshold*100))
			}
		case speedup:
			if baseVal > 0 && cur < baseVal*(1-threshold) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.2fx vs baseline %.2fx (-%.1f%%, limit -%.0f%%)",
					k, cur, baseVal, (1-cur/baseVal)*100, threshold*100))
			}
		}
	}
	if len(regressions) == 0 {
		fmt.Fprintf(stdout, "-- %s: within %.0f%% of baseline %s (%s) --\n",
			r.ID, threshold*100, base.Revision, mode(base.Quick))
	}
	return regressions, nil
}

func mode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func hasSuffixAny(s string, suffixes ...string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
