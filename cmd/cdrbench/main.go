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
//	E22    cost-based query planner vs written order
//	E23    huge-world tier: LoD stack vs exact-only; streamed bulk ingest
//	E24    reasoning pipeline: parallel solver, fragment fast path, joint RCC-8
//
// Usage:
//
//	cdrbench [-quick] [-seed N] [-only E9]
//
// It prints tables and gates nothing: service latency, recovery and
// replication are measured by bench/ (BENCHMARK.json) on the real cardirectd,
// and the algorithmic ratio floors (E22–E24) are asserted by the tests of
// internal/experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries := experiments.Entries(experiments.Options{Quick: *quick, Seed: *seed})
	if *only != "" {
		entries = selectEntries(entries, *only)
		if len(entries) == 0 {
			return fmt.Errorf("unknown experiment %q (known: %s)", *only, strings.Join(experiments.IDs(), ", "))
		}
	}
	for _, e := range entries {
		r, err := e.Run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "== %s: %s ==\n%s\n", r.ID, r.Title, r.Body)
	}
	return nil
}

// selectEntries returns the entries -only names: the one whose id is only,
// or whose range ("E4-E5") holds it ("E5"), ignoring case.
func selectEntries(entries []experiments.Entry, only string) []experiments.Entry {
	n, err := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(only), "E"))
	var out []experiments.Entry
	for _, e := range entries {
		lo, hi, ranged := strings.Cut(e.ID, "-")
		a, _ := strconv.Atoi(strings.TrimPrefix(lo, "E"))
		b, _ := strconv.Atoi(strings.TrimPrefix(hi, "E"))
		if strings.EqualFold(e.ID, only) || (ranged && err == nil && a <= n && n <= b) {
			out = append(out, e)
		}
	}
	return out
}
