package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/workload"
)

// e25Cluster is one primary plus helpers to stand up followers against it,
// all over real HTTP (httptest) — the replication path under measurement is
// the wire path cardirectd ships.
type e25Cluster struct {
	tr     *config.Tracked
	prim   *replica.Primary
	server *httptest.Server
	logger *slog.Logger
}

func e25Primary(o Options, n int) (*e25Cluster, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	tr, err := config.Track(config.Greece(), core.StoreOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	prim := replica.NewPrimary(tr, tr, replica.PrimaryOptions{})
	g := workload.New(o.Seed)
	bulk := make([]config.BulkRegion, n)
	for i, r := range g.Scatter(n, 8) {
		bulk[i] = config.BulkRegion{ID: fmt.Sprintf("w%05d", i), Geometry: r}
	}
	if err := prim.BulkAddRegions(bulk); err != nil {
		tr.Close()
		return nil, err
	}
	srv := serve.New(tr, serve.Options{Logger: logger, Repl: prim, Editor: prim})
	return &e25Cluster{tr: tr, prim: prim, server: httptest.NewServer(srv.Handler()), logger: logger}, nil
}

func (c *e25Cluster) close() {
	c.server.Close()
	c.tr.Close()
}

// follower opens a replica against the cluster's primary and returns it with
// its own read server; run/stop control stays with the caller.
func (c *e25Cluster) follower(ctx context.Context) (*replica.Replica, *httptest.Server, error) {
	rep, err := replica.Open(ctx, replica.Options{
		Primary:  c.server.URL,
		Workers:  1,
		PollWait: 50 * time.Millisecond,
		Logger:   c.logger,
	})
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(rep.Tracked(), serve.Options{
		Logger:     c.logger,
		Role:       "replica",
		PrimaryURL: c.server.URL,
		Follower:   rep,
	})
	return rep, httptest.NewServer(srv.Handler()), nil
}

// e25WaitCaughtUp polls until the replica applied every primary record and
// reached its generation.
func e25WaitCaughtUp(c *e25Cluster, rep *replica.Replica, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := rep.Status()
		if st.LastAppliedSeq == c.prim.Head() && st.Generation == c.tr.Store().Generation() {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("replica stuck: %+v vs head %d gen %d",
		rep.Status(), c.prim.Head(), c.tr.Store().Generation())
}

// E25Replication measures the scale-out tier behind -role=replica|router:
//
//   - WAL catch-up throughput: a bootstrapped replica is paused, the primary
//     takes a burst of region edits, and the replica tails back to the head
//     over HTTP — applying each shipped record through the store's edit
//     methods, one Prepare per edit. The alternative a replica without WAL
//     shipping has is a fresh snapshot bootstrap, which validates and
//     prepares every region again — O(n) since the store stopped caching
//     pairs, so the ratio is O(n)/O(edits), not the O(n²)/O(edits·n) it
//     was; both are timed as the median of seven rounds (medians shrug off
//     the 2–3x scheduling spikes of shared hardware that make min-of-N
//     flicker) and the ratio is the gated speedup. Byte agreement
//     (relations body and ETag against the primary) is asserted before any
//     timing.
//   - Router read fan-out: two caught-up replicas behind the request router,
//     read traffic round-robins across both (each replica's served share is
//     asserted positive and reported).
//   - Bounded staleness: a deliberately lagging replica answers a
//     Cardirect-Min-Generation demand with 503 replica_lagging and serves
//     the same request once caught up — the reject path is asserted, not
//     timed.
//
// Metric suffixes follow the trend-gate convention: *_ms may not grow and
// *_speedup may not shrink beyond the threshold.
func E25Replication(o Options) (Report, error) {
	// Catch-up is O(edits) against the re-track's O(n): the full-mode
	// sizes keep the ratio above the asserted floor.
	n, edits, reads := 900, 30, 200
	if o.Quick {
		n, edits, reads = 400, 20, 100
	}
	metrics := map[string]float64{"n": float64(n), "edits": float64(edits)}
	cl, err := e25Primary(o, n)
	if err != nil {
		return Report{}, err
	}
	defer cl.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rep, repSrv, err := cl.follower(ctx)
	if err != nil {
		return Report{}, err
	}
	defer repSrv.Close()
	defer rep.Close()

	// The edit burst flips geometries of existing regions: world size and
	// per-record cost stay constant across the timed rounds.
	burst := func(round int) error {
		for i := 0; i < edits; i++ {
			id := fmt.Sprintf("w%05d", (round*edits+i*7)%n)
			x := float64((round*31+i*17)%n) * 0.9
			y := float64((i*13)%n) * 0.9
			if err := cl.prim.SetRegionGeometry(id, workload.BoxRegion(x, y, x+6, y+6)); err != nil {
				return err
			}
		}
		return nil
	}

	// Correctness before timing: after one burst the replica's relations
	// body and ETag are byte-identical to the primary's.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(runCtx) }()
	if err := burst(0); err != nil {
		return Report{}, err
	}
	if err := e25WaitCaughtUp(cl, rep, 30*time.Second); err != nil {
		return Report{}, err
	}
	fetch := func(base, path, minGen string) (int, http.Header, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			return 0, nil, nil, err
		}
		if minGen != "" {
			req.Header.Set(replica.HeaderMinGeneration, minGen)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, body, err
	}
	_, pHdr, pBody, err := fetch(cl.server.URL, "/v1/relations", "")
	if err != nil {
		return Report{}, err
	}
	_, rHdr, rBody, err := fetch(repSrv.URL, "/v1/relations", "")
	if err != nil {
		return Report{}, err
	}
	if string(pBody) != string(rBody) || pHdr.Get("ETag") != rHdr.Get("ETag") {
		return Report{}, fmt.Errorf("E25: replica disagrees with primary at equal generation (ETag %q vs %q)",
			pHdr.Get("ETag"), rHdr.Get("ETag"))
	}

	// Timed catch-up, median of seven: pause the tail loop, burst, resume
	// and clock tail-to-head. Each round applies `edits` records to the
	// same n-region world.
	stopRun()
	<-runDone
	var catchSamples []float64
	for round := 1; round <= 7; round++ {
		if err := burst(round); err != nil {
			return Report{}, err
		}
		runtime.GC()
		rctx, rcancel := context.WithCancel(ctx)
		done := make(chan struct{})
		t0 := time.Now()
		go func() { defer close(done); rep.Run(rctx) }()
		if err := e25WaitCaughtUp(cl, rep, 60*time.Second); err != nil {
			rcancel()
			return Report{}, err
		}
		catchSamples = append(catchSamples, float64(time.Since(t0).Nanoseconds()))
		rcancel()
		<-done
	}
	nsCatch := medianNS(catchSamples)

	// The no-WAL alternative: track a fresh store from the snapshot —
	// validate and prepare every region again. The first (untimed) round
	// absorbs allocator and page-cache warmup.
	snap, _, _, err := cl.prim.Snapshot()
	if err != nil {
		return Report{}, err
	}
	img, err := replica.DecodeSnapshotImage(snap)
	if err != nil {
		return Report{}, err
	}
	var rebuildSamples []float64
	for i := 0; i < 8; i++ {
		// A forced collection between rounds keeps variable GC-assist work
		// out of the timed section — on small-core machines it otherwise
		// lands inside whichever round the pacer picks.
		runtime.GC()
		t0 := time.Now()
		seeded, err := config.Track(img, core.StoreOptions{Workers: 1})
		if err != nil {
			return Report{}, err
		}
		if i > 0 {
			rebuildSamples = append(rebuildSamples, float64(time.Since(t0).Nanoseconds()))
		}
		seeded.Close()
	}
	nsRebuild := medianNS(rebuildSamples)
	speedup := nsRebuild / nsCatch
	metrics["catchup_ms"] = nsCatch / 1e6
	metrics["rebuild_ms"] = nsRebuild / 1e6
	metrics["catchup_speedup"] = speedup
	if !o.Quick && speedup < 1.2 {
		return Report{}, fmt.Errorf(
			"E25: WAL catch-up (%d edits, %d regions) at %.2fx vs snapshot rebuild, want >= 1.2x",
			edits, n, speedup)
	}

	// Bounded staleness: the replica is idle again (tail loop stopped after
	// the timed rounds), so one more primary edit makes it stale.
	if err := cl.prim.SetRegionGeometry("w00000", workload.BoxRegion(1, 1, 7, 7)); err != nil {
		return Report{}, err
	}
	primGen := fmt.Sprint(cl.tr.Store().Generation())
	status, _, body, err := fetch(repSrv.URL, "/v1/relations", primGen)
	if err != nil {
		return Report{}, err
	}
	if status != http.StatusServiceUnavailable {
		return Report{}, fmt.Errorf("E25: lagging replica answered %d to a min-generation demand, want 503: %s", status, body)
	}
	go rep.Run(ctx) // resume tailing for the rest of the experiment
	if err := e25WaitCaughtUp(cl, rep, 30*time.Second); err != nil {
		return Report{}, err
	}
	if status, _, _, err = fetch(repSrv.URL, "/v1/relations", primGen); err != nil || status != http.StatusOK {
		return Report{}, fmt.Errorf("E25: caught-up replica still rejects min-generation %s: status %d err %v", primGen, status, err)
	}

	// Router fan-out: two live replicas behind counting frontends; reads
	// through the router must land on both.
	rep2, rep2Srv, err := cl.follower(ctx)
	if err != nil {
		return Report{}, err
	}
	defer rep2Srv.Close()
	defer rep2.Close()
	go rep2.Run(ctx)
	if err := e25WaitCaughtUp(cl, rep2, 30*time.Second); err != nil {
		return Report{}, err
	}
	var hits [2]atomic.Int64
	count := func(i int, next http.Handler) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The router's own health probes also land here; only client
			// reads count toward the fan-out split.
			if r.URL.Path != "/v1/healthz" {
				hits[i].Add(1)
			}
			next.ServeHTTP(w, r)
		}))
	}
	front1 := count(0, httpProxy(repSrv.URL))
	defer front1.Close()
	front2 := count(1, httpProxy(rep2Srv.URL))
	defer front2.Close()
	rtr, err := replica.NewRouter(replica.RouterOptions{
		Primary:        cl.server.URL,
		Replicas:       []string{front1.URL, front2.URL},
		HealthInterval: 10 * time.Millisecond,
		Logger:         cl.logger,
	})
	if err != nil {
		return Report{}, err
	}
	go rtr.Run(ctx)
	routerSrv := httptest.NewServer(rtr.Handler())
	defer routerSrv.Close()
	healthy := func() int {
		_, _, body, err := fetch(routerSrv.URL, "/v1/router/status", "")
		if err != nil {
			return 0
		}
		var st struct {
			Data struct {
				Healthy int `json:"healthy_replicas"`
			} `json:"data"`
		}
		if json.Unmarshal(body, &st) != nil {
			return 0
		}
		return st.Data.Healthy
	}
	deadline := time.Now().Add(30 * time.Second)
	for healthy() < 2 {
		if time.Now().After(deadline) {
			return Report{}, fmt.Errorf("E25: router never saw both replicas healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hits[0].Store(0)
	hits[1].Store(0)
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		status, _, body, err := fetch(routerSrv.URL, "/v1/relation?primary=w00001&reference=attica", "")
		if err != nil || status != http.StatusOK {
			return Report{}, fmt.Errorf("E25: router read %d: status %d err %v: %s", i, status, err, body)
		}
	}
	fanoutNS := float64(time.Since(t0).Nanoseconds())
	h0, h1 := hits[0].Load(), hits[1].Load()
	if h0 == 0 || h1 == 0 {
		return Report{}, fmt.Errorf("E25: router fan-out skipped a replica: %d vs %d of %d reads", h0, h1, reads)
	}
	minShare := float64(min64(h0, h1)) / float64(reads)
	metrics["router_reads"] = float64(reads)
	metrics["router_fanout_min_share"] = minShare
	metrics["router_reads_per_sec"] = float64(reads) / (fanoutNS / 1e9)

	body2 := fmt.Sprintf("replica catch-up over HTTP WAL shipping (%d-region world, %d-edit burst,\nbyte-agreement with the primary asserted before timing):\n", n+11, edits)
	body2 += Table(
		[]string{"catch-up strategy", "wall-clock", "speedup"},
		[][]string{
			{"snapshot re-bootstrap (re-track n regions)", fmt.Sprintf("%.1f ms", nsRebuild/1e6), "1.0x"},
			{"WAL tail + apply", fmt.Sprintf("%.1f ms", nsCatch/1e6), fmt.Sprintf("%.1fx", speedup)},
		},
	)
	body2 += fmt.Sprintf("\nrouter fan-out: %d reads split %d / %d across two replicas (%.0f reads/s);\n", reads, h0, h1, metrics["router_reads_per_sec"])
	body2 += "bounded staleness: a lagging replica 503s a Cardirect-Min-Generation demand\nand serves it after catch-up (asserted)\n"
	body2 += "\n`make bench-trend` gates catch-up latency and speedup against the committed baseline\n"
	return Report{
		ID:      "E25",
		Title:   "Replication: WAL catch-up vs rebuild, router fan-out, bounded staleness",
		Body:    body2,
		Metrics: metrics,
	}, nil
}

// httpProxy forwards every request to base, preserving status, headers and
// body — a counting frontend for fan-out attribution.
func httpProxy(base string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// medianNS is the timing estimator for the gated metrics: the median of the
// sampled rounds, robust against the scheduling spikes of shared hardware.
func medianNS(samples []float64) float64 {
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
