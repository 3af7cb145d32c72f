package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// primaryFixture is a serving replication primary: a tracked Greece world,
// the Primary wrapper edits route through, and the HTTP server in front.
type primaryFixture struct {
	tr   *config.Tracked
	prim *replica.Primary
	ts   *httptest.Server
}

func newPrimaryFixture(t *testing.T, pct bool) *primaryFixture {
	t.Helper()
	return newWrappedPrimaryFixture(t, pct, func(h http.Handler) http.Handler { return h })
}

// newWrappedPrimaryFixture serves the primary's handler through wrap, for
// tests that watch or disturb what reaches it.
func newWrappedPrimaryFixture(t *testing.T, pct bool, wrap func(http.Handler) http.Handler) *primaryFixture {
	t.Helper()
	tr, err := config.Track(config.Greece(), core.StoreOptions{Workers: 1, Pct: pct})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	prim := replica.NewPrimary(tr, tr, replica.PrimaryOptions{Pct: pct})
	srv := serve.New(tr, serve.Options{
		Logger: quietLogger(),
		Repl:   prim,
		Editor: prim,
	})
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return &primaryFixture{tr: tr, prim: prim, ts: ts}
}

// replicaFixture is a follower: the tailing Replica and its read-only server.
type replicaFixture struct {
	rep    *replica.Replica
	ts     *httptest.Server
	served atomic.Int64 // requests answered, health probes excluded
	cancel context.CancelFunc
	done   chan struct{}
}

func newReplicaFixture(t *testing.T, primaryURL, cacheDir string) *replicaFixture {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	rep, err := replica.Open(ctx, replica.Options{
		Primary:  primaryURL,
		CacheDir: cacheDir,
		Workers:  1,
		PollWait: 50 * time.Millisecond,
		Logger:   quietLogger(),
	})
	if err != nil {
		cancel()
		t.Fatalf("opening replica: %v", err)
	}
	f := &replicaFixture{rep: rep, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		rep.Run(ctx)
	}()
	srv := serve.New(rep.Tracked(), serve.Options{
		Logger:   quietLogger(),
		Follower: rep,
	})
	h := srv.Handler()
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			f.served.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(f.shutdown)
	return f
}

// shutdown stops the tail loop, the server and the cache, in that order
// (idempotent: tests that shut down early leave the cleanup a no-op).
func (f *replicaFixture) shutdown() {
	f.stop()
	f.ts.Close()
	f.rep.Close()
}

// stop cancels the tail loop and waits for it to exit (idempotent).
func (f *replicaFixture) stop() {
	f.cancel()
	<-f.done
}

// waitCaughtUp blocks until the replica has applied every primary record and
// its store generation equals the primary's.
func waitCaughtUp(t *testing.T, p *primaryFixture, rep *replica.Replica) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := rep.Status()
		if st.LastAppliedSeq == p.prim.Head() &&
			rep.Tracked().Store().Generation() == p.tr.Store().Generation() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never caught up: status %+v, primary head %d gen %d",
		rep.Status(), p.prim.Head(), p.tr.Store().Generation())
}

// fetch performs a request and returns status, headers and body.
func fetch(t *testing.T, req *http.Request) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func get(t *testing.T, base, path string, header map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	return fetch(t, req)
}

func post(t *testing.T, base, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return fetch(t, req)
}

// errorCode unwraps {"error": {"code": ...}} envelopes.
func errorCode(t *testing.T, body []byte) (code string, details map[string]any) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string         `json:"code"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %v in %s", err, body)
	}
	return env.Error.Code, env.Error.Details
}

// TestReplicaDifferential is the acceptance differential: across a
// randomized edit stream, a caught-up replica's /v1/relations, /v1/select
// and /v1/query responses — bodies AND ETags — are byte-identical to the
// primary's at the same generation, and writes to the replica answer 421
// not_primary carrying the primary's URL.
func TestReplicaDifferential(t *testing.T) {
	p := newPrimaryFixture(t, true)
	f := newReplicaFixture(t, p.ts.URL, "")

	rng := rand.New(rand.NewSource(42))
	live := []string{} // synthetic ids only; Greece's fixtures stay put
	nextID := 0
	add := func() {
		id := fmt.Sprintf("dyn%03d", nextID)
		nextID++
		x, y := rng.Float64()*400+500, rng.Float64()*400+500
		if err := p.prim.AddRegion(id, "Dyn "+id, "#336699", workload.BoxRegion(x, y, x+15, y+15)); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0:
			add()
		case op < 7:
			id := live[rng.Intn(len(live))]
			x, y := rng.Float64()*400+500, rng.Float64()*400+500
			if err := p.prim.SetRegionGeometry(id, workload.BoxRegion(x, y, x+12, y+12)); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			i := rng.Intn(len(live))
			if err := p.prim.RemoveRegion(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case op < 9:
			i := rng.Intn(len(live))
			renamed := live[i] + "r"
			if err := p.prim.RenameRegion(live[i], renamed); err != nil {
				t.Fatal(err)
			}
			live[i] = renamed
		default:
			batch := make([]wal.Record, 5)
			for j := range batch {
				id := fmt.Sprintf("dyn%03d", nextID)
				nextID++
				x, y := rng.Float64()*400+500, rng.Float64()*400+500
				batch[j] = wal.Record{Op: wal.OpAdd, ID: id, Geometry: workload.BoxRegion(x, y, x+8, y+8)}
				live = append(live, id)
			}
			if err := p.prim.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		// Compare at a handful of intermediate generations plus the end.
		if step%13 != 12 && step != 39 {
			continue
		}
		waitCaughtUp(t, p, f.rep)
		gen := p.tr.Store().Generation()
		wantETag := fmt.Sprintf("%q", fmt.Sprintf("g%d", gen))
		queryBody, _ := json.Marshal(map[string]any{"q": "q(x, y) :- x N y"})
		reads := []struct {
			name string
			do   func(base string) (int, http.Header, []byte)
		}{
			{"relations", func(base string) (int, http.Header, []byte) {
				return get(t, base, "/v1/relations", nil)
			}},
			{"relations+pct", func(base string) (int, http.Header, []byte) {
				return get(t, base, "/v1/relations?pct=1", nil)
			}},
			{"select", func(base string) (int, http.Header, []byte) {
				return get(t, base, "/v1/select?reference=attica&relation=N", nil)
			}},
			{"query", func(base string) (int, http.Header, []byte) {
				// Twice: the second answer is a plan-cache hit on both
				// sides, so the Cache field in the body agrees.
				post(t, base, "/v1/query", queryBody)
				return post(t, base, "/v1/query", queryBody)
			}},
		}
		for _, rd := range reads {
			pStatus, pHdr, pBody := rd.do(p.ts.URL)
			rStatus, rHdr, rBody := rd.do(f.ts.URL)
			if pStatus != http.StatusOK || rStatus != http.StatusOK {
				t.Fatalf("step %d %s: primary %d, replica %d: %s", step, rd.name, pStatus, rStatus, rBody)
			}
			if !bytes.Equal(pBody, rBody) {
				t.Fatalf("step %d %s: bodies differ at generation %d:\nprimary: %s\nreplica: %s",
					step, rd.name, gen, pBody, rBody)
			}
			if pe, re := pHdr.Get("ETag"), rHdr.Get("ETag"); pe != re || pe != wantETag {
				t.Fatalf("step %d %s: ETags primary=%q replica=%q want %q", step, rd.name, pe, re, wantETag)
			}
			if rd.name != "query" {
				// Conditional revalidation against the replica's tag works
				// exactly like against the primary.
				status, _, _ := get(t, f.ts.URL, "/v1/"+strings.SplitN(rd.name, "+", 2)[0], map[string]string{"If-None-Match": wantETag})
				_ = status // relations+pct aliases to relations without ?pct; 304 either way
			}
		}
	}

	// Writes to the replica: 421 not_primary with the primary URL in details.
	for _, w := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/regions", []byte(`{"id":"nope","wkt":"POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"}`)},
		{http.MethodDelete, "/v1/regions/attica", nil},
	} {
		req, err := http.NewRequest(w.method, f.ts.URL+w.path, bytes.NewReader(w.body))
		if err != nil {
			t.Fatal(err)
		}
		status, _, body := fetch(t, req)
		if status != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on replica: status %d, want 421: %s", w.method, w.path, status, body)
		}
		code, details := errorCode(t, body)
		if code != "not_primary" {
			t.Fatalf("%s %s: code %q, want not_primary", w.method, w.path, code)
		}
		if details["primary"] != p.ts.URL {
			t.Fatalf("%s %s: details.primary = %v, want %s", w.method, w.path, details["primary"], p.ts.URL)
		}
	}
	// The same writes on the primary still work.
	status, _, body := post(t, p.ts.URL, "/v1/regions", []byte(`{"id":"ok1","wkt":"POLYGON ((950 950, 960 950, 960 960, 950 960, 950 950))"}`))
	if status != http.StatusCreated {
		t.Fatalf("primary write: status %d: %s", status, body)
	}
	waitCaughtUp(t, p, f.rep)
}

// TestReplicaStalenessContract covers the bounded-staleness surface: a
// lagging replica stamps Cardirect-Staleness, answers 503 replica_lagging to
// a Cardirect-Min-Generation it has not reached, and serves the request once
// caught up; the replication status route reports both roles.
func TestReplicaStalenessContract(t *testing.T) {
	p := newPrimaryFixture(t, true)
	f := newReplicaFixture(t, p.ts.URL, "")
	waitCaughtUp(t, p, f.rep)
	f.stop() // freeze the replica: new primary edits won't apply

	if err := p.prim.AddRegion("ahead", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	primGen := p.tr.Store().Generation()
	minGen := map[string]string{replica.HeaderMinGeneration: fmt.Sprint(primGen)}

	status, hdr, body := get(t, f.ts.URL, "/v1/relations", nil)
	if status != http.StatusOK {
		t.Fatalf("unconditional read on a lagging replica: %d: %s", status, body)
	}
	if hdr.Get(replica.HeaderStaleness) == "" {
		t.Fatal("replica response missing the Cardirect-Staleness header")
	}
	status, _, body = get(t, f.ts.URL, "/v1/relations", minGen)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("min-generation read on a lagging replica: %d, want 503: %s", status, body)
	}
	code, details := errorCode(t, body)
	if code != "replica_lagging" {
		t.Fatalf("code %q, want replica_lagging", code)
	}
	if details["primary"] != p.ts.URL {
		t.Fatalf("details.primary = %v", details["primary"])
	}
	// The primary itself always satisfies its own generation.
	if status, _, _ := get(t, p.ts.URL, "/v1/relations", minGen); status != http.StatusOK {
		t.Fatalf("primary min-generation read: %d", status)
	}
	// Malformed header: 400.
	if status, _, _ := get(t, f.ts.URL, "/v1/relations", map[string]string{replica.HeaderMinGeneration: "soon"}); status != http.StatusBadRequest {
		t.Fatal("malformed min-generation accepted")
	}

	// Resume tailing (fresh context), catch up, and the demand is met.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.rep.Run(ctx)
	waitCaughtUp(t, p, f.rep)
	status, _, body = get(t, f.ts.URL, "/v1/relations", minGen)
	if status != http.StatusOK {
		t.Fatalf("min-generation read after catch-up: %d: %s", status, body)
	}

	// Status routes: the primary reports its epoch and head, the replica its
	// applied position.
	var primSt struct {
		Data struct {
			Role    string `json:"role"`
			Enabled bool   `json:"enabled"`
			Epoch   string `json:"epoch"`
			HeadSeq uint64 `json:"head_seq"`
		} `json:"data"`
	}
	_, _, body = get(t, p.ts.URL, "/v1/replication/status", nil)
	if err := json.Unmarshal(body, &primSt); err != nil {
		t.Fatal(err)
	}
	if primSt.Data.Role != "primary" || !primSt.Data.Enabled || primSt.Data.Epoch == "" || primSt.Data.HeadSeq == 0 {
		t.Fatalf("primary replication status: %+v", primSt.Data)
	}
	var repSt struct {
		Data struct {
			Role    string          `json:"role"`
			Replica *replica.Status `json:"replica"`
		} `json:"data"`
	}
	_, _, body = get(t, f.ts.URL, "/v1/replication/status", nil)
	if err := json.Unmarshal(body, &repSt); err != nil {
		t.Fatal(err)
	}
	if repSt.Data.Role != "replica" || repSt.Data.Replica == nil {
		t.Fatalf("replica replication status: %s", body)
	}
	if repSt.Data.Replica.Epoch != primSt.Data.Epoch || repSt.Data.Replica.LastAppliedSeq != p.prim.Head() {
		t.Fatalf("replica position: %+v vs primary epoch %s head %d",
			repSt.Data.Replica, primSt.Data.Epoch, p.prim.Head())
	}
}

// TestReplicaCacheResume kills a tailing replica and restarts it over the
// same cache directory: it must resume from its last applied sequence
// (ResumedFromCache, BootSeq > 0) instead of re-downloading the snapshot,
// then converge to the primary's generation.
func TestReplicaCacheResume(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	for i := 0; i < 5; i++ {
		x := 500 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("pre%02d", i), "", "", workload.BoxRegion(x, 500, x+10, 510)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f.rep)
	appliedAtStop := f.rep.Status().LastAppliedSeq
	f.stop()
	f.ts.Close()
	f.rep.Close()

	// The primary moves on while the replica is down.
	for i := 0; i < 3; i++ {
		x := 700 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("down%02d", i), "", "", workload.BoxRegion(x, 700, x+10, 710)); err != nil {
			t.Fatal(err)
		}
	}

	f2 := newReplicaFixture(t, p.ts.URL, cache)
	st := f2.rep.Status()
	if !st.ResumedFromCache {
		t.Fatalf("restart did not resume from cache: %+v", st)
	}
	if st.BootSeq != appliedAtStop {
		t.Fatalf("boot seq %d, want the %d applied before the kill", st.BootSeq, appliedAtStop)
	}
	waitCaughtUp(t, p, f2.rep)
	if f2.rep.Tracked().Store().Len() != p.tr.Store().Len() {
		t.Fatalf("resumed replica has %d regions, primary %d",
			f2.rep.Tracked().Store().Len(), p.tr.Store().Len())
	}
	rel, err := f2.rep.Tracked().Store().Relation("down02", "attica")
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.tr.Store().Relation("down02", "attica")
	if err != nil {
		t.Fatal(err)
	}
	if rel != want {
		t.Fatalf("resumed relation %v, primary %v", rel, want)
	}
}

// TestReplicaEpochRebootstrap swaps the primary behind a stable URL (a
// restarted primary has a new epoch and an empty log): the replica must
// detect the epoch change and re-bootstrap from the new snapshot rather
// than apply records from the wrong incarnation.
func TestReplicaEpochRebootstrap(t *testing.T) {
	p1 := newPrimaryFixture(t, false)
	p2 := newPrimaryFixture(t, false)
	if err := p2.prim.AddRegion("second-epoch", "", "", workload.BoxRegion(600, 600, 615, 615)); err != nil {
		t.Fatal(err)
	}

	var target atomic.Value
	target.Store(p1.ts.URL)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		base := target.Load().(string)
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
	}))
	defer front.Close()

	f := newReplicaFixture(t, front.URL, "")
	if err := p1.prim.AddRegion("first-epoch", "", "", workload.BoxRegion(500, 500, 515, 515)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p1, f.rep)
	if got := f.rep.Status().Epoch; got != p1.prim.Epoch() {
		t.Fatalf("replica epoch %s, want %s", got, p1.prim.Epoch())
	}
	// Warm the replica's query snapshot and (parameter-free text) cached
	// execution state on the first world.
	everyRegion := []byte(`{"q":"q(x) :- color(x) != nosuch"}`)
	oldGen := f.rep.Tracked().Store().Generation()
	if _, _, body := post(t, f.ts.URL, "/v1/query", everyRegion); !bytes.Contains(body, []byte(`"first-epoch"`)) {
		t.Fatalf("pre-swap query misses first-epoch: %s", body)
	}

	target.Store(p2.ts.URL) // "restart" the primary: new epoch, new world
	deadline := time.Now().Add(15 * time.Second)
	for f.rep.Status().Epoch != p2.prim.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck on epoch %s after the swap", f.rep.Status().Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCaughtUp(t, p2, f.rep)
	st := f.rep.Status()
	if st.Bootstraps < 2 {
		t.Fatalf("bootstraps = %d, want >= 2 (one per epoch)", st.Bootstraps)
	}
	if _, err := f.rep.Tracked().Store().Relation("second-epoch", "attica"); err != nil {
		t.Fatalf("replica missing the new epoch's region: %v", err)
	}
	// The old epoch's region must be gone: the worlds were not merged.
	if _, err := f.rep.Tracked().Store().Relation("first-epoch", "attica"); err == nil {
		t.Fatal("replica still serves the old epoch's region after re-bootstrap")
	}
	// Both worlds sit at the same generation, so nothing but the tracked
	// store's identity tells the query engine its snapshot is of a dead world.
	if gen := f.rep.Tracked().Store().Generation(); gen != oldGen {
		t.Fatalf("worlds at generations %d and %d: the swap no longer collides", oldGen, gen)
	}
	_, _, body := post(t, f.ts.URL, "/v1/query", everyRegion)
	if !bytes.Contains(body, []byte(`"second-epoch"`)) || bytes.Contains(body, []byte(`"first-epoch"`)) {
		t.Fatalf("post-swap query answered from the old world: %s", body)
	}
}

// TestReplicaPctDisabled: a replica of a -pct=off primary refuses percent
// reads with 422 pct_disabled, as does the primary itself.
func TestReplicaPctDisabled(t *testing.T) {
	p := newPrimaryFixture(t, false)
	f := newReplicaFixture(t, p.ts.URL, "")
	waitCaughtUp(t, p, f.rep)
	for _, base := range []string{p.ts.URL, f.ts.URL} {
		status, _, body := get(t, base, "/v1/relation?primary=attica&reference=peloponnesos&pct=1", nil)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: pct read on a pct-off node: %d: %s", base, status, body)
		}
		if code, _ := errorCode(t, body); code != "pct_disabled" {
			t.Fatalf("%s: code %q, want pct_disabled", base, code)
		}
		// A query reads the same store, so its percent conditions are
		// refused the same way.
		status, _, body = post(t, base, "/v1/query", []byte(`{"q":"q(x, y) :- y = attica, pct(x N y) > 50"}`))
		if code, _ := errorCode(t, body); status != http.StatusUnprocessableEntity || code != "pct_disabled" {
			t.Fatalf("%s: pct query on a pct-off node: %d %q, want 422 pct_disabled", base, status, code)
		}
		// The qualitative reads still work.
		if status, _, _ := get(t, base, "/v1/relation?primary=attica&reference=peloponnesos", nil); status != http.StatusOK {
			t.Fatalf("%s: qualitative read broken on a pct-off node", base)
		}
		if status, _, body := post(t, base, "/v1/query", []byte(`{"q":"q(x, y) :- y = attica, x N y"}`)); status != http.StatusOK {
			t.Fatalf("%s: qualitative query on a pct-off node: %d: %s", base, status, body)
		}
	}
	if f.rep.Tracked().Store().Pct() {
		t.Fatal("replica did not inherit pct=off from the primary snapshot headers")
	}
}

// TestRouterRouting: writes land on the primary, reads fan out across
// replicas, replication/admin traffic pins to the primary, and an unhealthy
// replica drops out of rotation.
func TestRouterRouting(t *testing.T) {
	p := newPrimaryFixture(t, false)
	f1 := newReplicaFixture(t, p.ts.URL, "")
	f2 := newReplicaFixture(t, p.ts.URL, "")

	rtr, err := replica.NewRouter(replica.RouterOptions{
		Primary:        p.ts.URL,
		Replicas:       []string{f1.ts.URL, f2.ts.URL},
		HealthInterval: 20 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rtr.Run(ctx)
	front := httptest.NewServer(rtr.Handler())
	defer front.Close()

	healthyReplicas := func() int {
		_, _, body := get(t, front.URL, "/v1/router/status", nil)
		var st struct {
			Data struct {
				Healthy int `json:"healthy_replicas"`
			} `json:"data"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st.Data.Healthy
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	waitFor("both replicas healthy", func() bool { return healthyReplicas() == 2 })

	// A write through the router reaches the primary and replicates out.
	status, _, body := post(t, front.URL, "/v1/regions", []byte(`{"id":"via-router","wkt":"POLYGON ((800 800, 810 800, 810 810, 800 810, 800 800))"}`))
	if status != http.StatusCreated {
		t.Fatalf("write via router: %d: %s", status, body)
	}
	waitCaughtUp(t, p, f1.rep)
	waitCaughtUp(t, p, f2.rep)

	// Reads through the router see it (whichever replica answers), and the
	// staleness header on ETag routes proves a replica served them.
	for i := 0; i < 4; i++ {
		status, _, body := get(t, front.URL, "/v1/regions/via-router", nil)
		if status != http.StatusOK {
			t.Fatalf("read %d via router: %d: %s", i, status, body)
		}
		status, hdr, body := get(t, front.URL, "/v1/relations", nil)
		if status != http.StatusOK {
			t.Fatalf("relations read %d via router: %d: %s", i, status, body)
		}
		if hdr.Get(replica.HeaderStaleness) == "" {
			t.Fatalf("relations read %d was not served by a replica (no staleness header)", i)
		}
	}
	// The round-robin reached both replicas.
	if n1, n2 := f1.served.Load(), f2.served.Load(); n1 == 0 || n2 == 0 {
		t.Fatalf("router fan-out skipped a replica: %d vs %d reads", n1, n2)
	}
	// Replication status pins to the primary even though it is a GET.
	_, _, body = get(t, front.URL, "/v1/replication/status", nil)
	var rs struct {
		Data struct {
			Role string `json:"role"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &rs); err != nil || rs.Data.Role != "primary" {
		t.Fatalf("replication status via router answered by %q: %s", rs.Data.Role, body)
	}
	// POSTed queries are reads: they round-robin, not 421.
	qb, _ := json.Marshal(map[string]any{"q": "q(x, y) :- x N y"})
	if status, _, body := post(t, front.URL, "/v1/query", qb); status != http.StatusOK {
		t.Fatalf("query via router: %d: %s", status, body)
	}

	// Kill one replica: the router notices and keeps serving from the other.
	f1.ts.Close()
	waitFor("dead replica detected", func() bool { return healthyReplicas() == 1 })
	for i := 0; i < 4; i++ {
		if status, _, _ := get(t, front.URL, "/v1/regions/via-router", nil); status != http.StatusOK {
			t.Fatalf("read %d after replica death: %d", i, status)
		}
	}
}

// TestSeedPathMatchesDelta double-checks the replica apply path against
// geometry ground truth: after a random stream, every replica relation
// equals a from-scratch ComputeCDR over the replica's own geometries.
func TestSeedPathMatchesDelta(t *testing.T) {
	p := newPrimaryFixture(t, false)
	f := newReplicaFixture(t, p.ts.URL, "")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		x, y := rng.Float64()*300+500, rng.Float64()*300+500
		if err := p.prim.AddRegion(fmt.Sprintf("g%02d", i), "", "", workload.BoxRegion(x, y, x+20, y+20)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f.rep)
	tr := f.rep.Tracked()
	err := tr.View(func(img *config.Image) error {
		for _, a := range img.Regions {
			for _, b := range img.Regions {
				if a.ID == b.ID {
					continue
				}
				want, err := core.ComputeCDR(a.Geometry(), b.Geometry())
				if err != nil {
					return err
				}
				got, err := tr.Store().Relation(a.ID, b.ID)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("replica %s/%s = %v, recompute %v", a.ID, b.ID, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
