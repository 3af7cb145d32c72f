package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"cardirect/internal/experiments"
)

func TestOnlySelectsOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E9"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== E9:") {
		t.Errorf("missing E9 header: %q", s)
	}
	if strings.Contains(s, "== E10:") || strings.Contains(s, "== E1-E3:") {
		t.Error("-only ran other experiments")
	}
	if !strings.Contains(s, "B:S:SW:W") {
		t.Error("E9 body missing the Fig. 12 relation")
	}
}

func TestOnlyCaseInsensitive(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "e1-e3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig3c triangle") {
		t.Errorf("E1-E3 body missing: %q", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E99"}, &out); err == nil {
		t.Error("unknown experiment id should fail")
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestJSONFlagWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	// Direct serialisation of a metrics-bearing report. Quick runs get a
	// _quick filename suffix and the output directory is created.
	r := experiments.Report{
		ID:      "E99-test",
		Title:   "fixture",
		Metrics: map[string]float64{"ns_per_op": 12.5, "allocs_per_op": 0},
	}
	if err := writeBenchJSON("out", r, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("out/BENCH_E99-test_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if got.ID != "E99-test" || got.Metrics["ns_per_op"] != 12.5 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
	// The run environment is stamped alongside the metrics.
	if !got.Quick || got.GoVersion == "" || got.GOMAXPROCS < 1 ||
		got.GOOS == "" || got.GOARCH == "" || got.Revision == "" {
		t.Errorf("environment stamp incomplete: %+v", got)
	}

	// A metrics-free experiment with -json writes no file (not even the
	// default -out directory).
	var out bytes.Buffer
	if err := run([]string{"-json", "-only", "E9"}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out" {
			t.Errorf("unexpected file %q", e.Name())
		}
	}
}

// TestCompareMetrics covers the regression gate's classification rules:
// timing and size keys fail upward, speedup keys fail downward, both pass
// within the threshold, vanished metrics are flagged, and quick/full
// baselines cannot be compared across modes.
func TestCompareMetrics(t *testing.T) {
	base := &benchFile{
		ID: "E21", Quick: true, Revision: "abc",
		Metrics: map[string]float64{
			"batch_pct_ms":       10,
			"pct_kernel_speedup": 2.0,
			"n":                  500, // unitless: informational only
		},
	}
	report := func(ms, speedup float64) experiments.Report {
		return experiments.Report{ID: "E21", Metrics: map[string]float64{
			"batch_pct_ms": ms, "pct_kernel_speedup": speedup, "n": 9999,
		}}
	}
	var out bytes.Buffer

	got, err := compareMetrics(&out, report(11, 1.9), base, true, 0.15)
	if err != nil || len(got) != 0 {
		t.Errorf("within-threshold run flagged: %v, %v", got, err)
	}
	got, err = compareMetrics(&out, report(12, 2.0), base, true, 0.15)
	if err != nil || len(got) != 1 || !strings.Contains(got[0], "batch_pct_ms") {
		t.Errorf("timing regression not caught: %v, %v", got, err)
	}
	got, err = compareMetrics(&out, report(10, 1.5), base, true, 0.15)
	if err != nil || len(got) != 1 || !strings.Contains(got[0], "pct_kernel_speedup") {
		t.Errorf("speedup regression not caught: %v, %v", got, err)
	}
	base.Metrics["world_bytes"] = 1000
	grown := report(10, 2)
	grown.Metrics["world_bytes"] = 1200
	got, err = compareMetrics(&out, grown, base, true, 0.15)
	if err != nil || len(got) != 1 || !strings.Contains(got[0], "world_bytes") {
		t.Errorf("size regression not caught: %v, %v", got, err)
	}
	delete(base.Metrics, "world_bytes")
	if _, err := compareMetrics(&out, report(10, 2), base, false, 0.15); err == nil {
		t.Error("quick baseline compared against full run without error")
	}
	missing := experiments.Report{ID: "E21", Metrics: map[string]float64{"batch_pct_ms": 10}}
	got, err = compareMetrics(&out, missing, base, true, 0.15)
	if err != nil || len(got) != 1 || !strings.Contains(got[0], "disappeared") {
		t.Errorf("vanished metric not flagged: %v, %v", got, err)
	}
}
