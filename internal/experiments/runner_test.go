package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestMain shortens every testing.Benchmark call the experiments make from
// the default 1 s to 100 ms: the floors asserted here are ratios of
// best-of-three measurements and hold at that length, and the package runs
// in seconds instead of minutes. cdrbench keeps the default.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := flag.Set("test.benchtime", "100ms"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var quickOpts = Options{Quick: true, Seed: 1}

func TestE1E2E3Report(t *testing.T) {
	r, err := E1E2E3EdgeCounts()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Fig3b", "Fig3c", "Example3", "16", "35", "B:W:NW:N:NE:E"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E1-E3 body missing %q", frag)
		}
	}
}

func TestE8Report(t *testing.T) {
	r, err := E8ScanCounts(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "9216") || !strings.Contains(r.Body, "1024") {
		t.Errorf("E8 body missing scan counts:\n%s", r.Body)
	}
}

func TestE9Report(t *testing.T) {
	r, err := E9Greece()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "B:S:SW:W") {
		t.Errorf("E9 body missing the Fig. 12 relation:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "%") {
		t.Error("E9 body missing the percentage matrix")
	}
}

func TestE10Report(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E10Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "511 relations") || !strings.Contains(r.Body, "NW:NE") {
		t.Errorf("E10 body:\n%s", r.Body)
	}
}

func TestE12Report(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E12Consistency()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Body, "WRONG") {
		t.Errorf("E12 reports a wrong consistency outcome:\n%s", r.Body)
	}
	if strings.Count(r.Body, "ok") < 4 {
		t.Errorf("E12 should confirm all four networks:\n%s", r.Body)
	}
}

func TestE14Report(t *testing.T) {
	r, err := E14Expressiveness(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "MBB approximation") || !strings.Contains(r.Body, "centroid cone") {
		t.Errorf("E14 body:\n%s", r.Body)
	}
	// The MBB model must never contradict on this workload.
	for _, line := range strings.Split(r.Body, "\n") {
		if strings.HasPrefix(line, "MBB") && !strings.Contains(line, "0.0%") {
			t.Errorf("MBB row should end with 0.0%% contradictions: %q", line)
		}
	}
}

func TestE15Report(t *testing.T) {
	r, err := E15OpCounts(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "intersections") && !strings.Contains(r.Body, "ratio") {
		t.Errorf("E15 body:\n%s", r.Body)
	}
}

func TestE17Report(t *testing.T) {
	r, err := E17CombinedRelations()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"peloponnesos", "EC", "DC", "RCC-8", "touch"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E17 body missing %q:\n%s", frag, r.Body)
		}
	}
}

func TestE18Report(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E18BatchScaling(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"pairs", "prune hits", "speedup", "workers"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E18 body missing %q:\n%s", frag, r.Body)
		}
	}
}

func TestE19Report(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E19PctBatchAndQueryPruning(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"fast-path hits", "speedup", "candidates"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E19 body missing %q:\n%s", frag, r.Body)
		}
	}
	if len(r.Metrics) == 0 {
		t.Error("E19 report has no metrics")
	}
}

func TestE20Report(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E20StoreDelta(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"re-read touched pairs", "speedup", "single-region edit"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E20 body missing %q:\n%s", frag, r.Body)
		}
	}
	for _, key := range []string{"full_qual_ms", "edit_us", "edit_reread_qual_us", "qual_speedup_1cpu", "touched_pairs"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("E20 metrics missing %q: %v", key, r.Metrics)
		}
	}
}

// TestE22PlannerWins runs the planner experiment in quick mode and enforces
// the acceptance bar: on the adversarially-ordered three-variable query over
// the 500-region worlds (store on one worker), the cost-based planner must
// beat written-order evaluation by at least 5x on both worlds — the metric is
// the smaller of the two ratios — while producing identical bindings (the
// experiment itself errors on any mismatch).
func TestE22PlannerWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E22QueryPlanner(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"written order", "planner", "speedup"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E22 body missing %q:\n%s", frag, r.Body)
		}
	}
	for _, key := range []string{"written_ms_scatter", "planner_ms_scatter",
		"written_ms_cluster", "planner_ms_cluster", "planner_speedup"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("E22 metrics missing %q: %v", key, r.Metrics)
		}
	}
	if got := r.Metrics["planner_speedup"]; got < 5 {
		t.Errorf("planner speedup %.2fx, want >= 5x", got)
	}
	for _, w := range []string{"scatter", "cluster"} {
		if r.Metrics["bindings_"+w] == 0 {
			t.Errorf("E22 %s: adversarial query produced no bindings — differential is vacuous", w)
		}
	}
}

// TestE23LoDWins runs the huge-world experiment in quick mode (2·10^4
// regions) and enforces the tier's acceptance bars at a noise-robust quick
// floor: the LoD stack must beat the exact-only sweep by ≥6x (the full
// 10^5-region run asserts the ≥10x bar inside the experiment itself), the
// coarse prefilter and strip stage must each actually decide pairs, and
// bulk ingest must land as one edit (one generation bump; the experiment
// errors otherwise). Bit-identity of every LoD answer is
// asserted by the experiment before any timing.
func TestE23LoDWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E23HugeWorld(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"LoD tier stack", "coarse single-tile", "strip-localised exact", "AddBulk (one batch)"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E23 body missing %q:\n%s", frag, r.Body)
		}
	}
	for _, key := range []string{"build_lod_ms", "exact_sweep_ms", "lod_sweep_ms",
		"lod_speedup", "pairs_coarse", "pairs_strip", "bulk_ingest_ms",
		"add_loop_ms"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("E23 metrics missing %q: %v", key, r.Metrics)
		}
	}
	if got := r.Metrics["lod_speedup"]; got < 6 {
		t.Errorf("LoD tier speedup %.2fx, want >= 6x (quick floor; full mode asserts 10x)", got)
	}
	if r.Metrics["pairs_coarse"] == 0 {
		t.Error("coarse prefilter decided no pairs — the O(1) tier is vacuous")
	}
	if r.Metrics["pairs_strip"] == 0 {
		t.Error("strip stage decided no pairs — the localised exact tier is vacuous")
	}
}

// TestE24Reasoning runs the reasoning-pipeline experiment in quick mode and
// enforces the acceptance bars at a noise-robust quick floor: the parallel
// branch fan must beat the sequential backtracking solver by >= 1.5x on the
// hidden-witness adversarial network (the full run asserts the >= 2x bar
// inside the experiment itself), and the fragment fast path must actually
// decide — witness verification, the fast-path/solver-branch counters, and
// the joint RCC-8 rejection are all asserted by the experiment before any
// timing.
func TestE24Reasoning(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	r, err := E24Reasoning(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"parallel branch fan", "sequential backtracking", "fast path (Check)", "joint directional+RCC-8"} {
		if !strings.Contains(r.Body, frag) {
			t.Errorf("E24 body missing %q:\n%s", frag, r.Body)
		}
	}
	for _, key := range []string{"seq_solve_ms", "par_solve_ms", "parallel_speedup",
		"fastpath_ms", "solver_infragment_ms", "fastpath_speedup"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("E24 metrics missing %q: %v", key, r.Metrics)
		}
	}
	if got := r.Metrics["parallel_speedup"]; got < 1.5 {
		t.Errorf("parallel solver speedup %.2fx, want >= 1.5x (quick floor; full mode asserts 2x)", got)
	}
}

func TestEntriesAndIDs(t *testing.T) {
	entries := Entries(quickOpts)
	if len(entries) != 19 {
		t.Fatalf("entries = %d, want 19 (E1-E3 … E20, E22 … E24)", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.ID == "" || e.Run == nil {
			t.Errorf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	ids := IDs()
	if len(ids) != len(entries) {
		t.Errorf("IDs = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
}
