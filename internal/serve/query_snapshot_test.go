package serve_test

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
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/query"
	"cardirect/internal/serve"
	"cardirect/internal/workload"
)

var snapColors = []string{"red", "green", "blue", "grey"}

// trackedWorld tracks the regions as w0000.., colors cycling.
func trackedWorld(tb testing.TB, regions []geom.Region, opt core.StoreOptions) *config.Tracked {
	tb.Helper()
	img := &config.Image{Name: "snapshot-test"}
	for i, g := range regions {
		id := fmt.Sprintf("w%04d", i)
		reg := config.Region{ID: id, Name: id, Color: snapColors[i%len(snapColors)]}
		reg.SetGeometry(g)
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tr.Close)
	return tr
}

func quietHandler(tr *config.Tracked, log *slog.Logger) http.Handler {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return serve.New(tr, serve.Options{Logger: log}).Handler()
}

// serveQuery runs one POST /v1/query in-process.
func serveQuery(h http.Handler, text string, args map[string]string) *httptest.ResponseRecorder {
	body, _ := json.Marshal(map[string]any{"q": text, "args": args})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	return rec
}

// snapshotCounters reads the engine's snapshot counters off the expvar
// surface (the process-global map reports the server built last).
func snapshotCounters(tb testing.TB, h http.Handler) (builds, reuses int) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Cardirectd struct {
			Builds *int `json:"query_snapshot_builds"`
			Reuses *int `json:"query_snapshot_reuses"`
		} `json:"cardirectd"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		tb.Fatal(err)
	}
	if vars.Cardirectd.Builds == nil || vars.Cardirectd.Reuses == nil {
		tb.Fatal("expvar map lacks query_snapshot_builds / query_snapshot_reuses")
	}
	return *vars.Cardirectd.Builds, *vars.Cardirectd.Reuses
}

// TestQuerySnapshotDifferential drives a randomized stream of edits and
// queries through the handler and demands, for every query, the exact bytes
// and ETag a from-scratch evaluator at that generation produces — the body
// re-encoded here, independently of the handler's own response type. The
// reference shares a mirror plan cache fed the same texts, so the cache
// outcome (hit/miss/replan) is part of the comparison; its bindings are in
// turn held to the pairwise oracle — written-order evaluation, which reads
// the store pair by pair and never through the row read pushdown uses.
func TestQuerySnapshotDifferential(t *testing.T) {
	gen := workload.New(7)
	tr := trackedWorld(t, gen.Cluster(40, 6, 8), core.StoreOptions{Workers: 1, Pct: true})
	h := quietHandler(tr, nil)
	refPlans := query.NewPlanCache(256)
	rng := rand.New(rand.NewSource(7))

	type wire struct {
		Vars       []string        `json:"vars"`
		Bindings   []query.Binding `json:"bindings"`
		Plan       *query.PlanInfo `json:"plan,omitempty"`
		Cache      string          `json:"cache,omitempty"`
		Generation uint64          `json:"generation"`
	}
	reference := func(text string, args map[string]string) (body []byte, res *query.Result, err error) {
		err = tr.View(func(img *config.Image) error {
			ev, err := query.NewEvaluator(img)
			if err != nil {
				return err
			}
			ev.UseStore(tr.Store())
			ev.SetPlanCache(refPlans)
			res, err = ev.Run(context.Background(), text, args)
			if err != nil {
				return err
			}
			ev.SetPlanner(false)
			pairwise, err := ev.Run(context.Background(), text, args)
			if err != nil {
				return err
			}
			if len(pairwise.Bindings) != len(res.Bindings) || (len(res.Bindings) > 0 && !reflect.DeepEqual(pairwise.Bindings, res.Bindings)) {
				t.Fatalf("%q %v: planned bindings differ from pair-by-pair evaluation\n got %v\nwant %v", text, args, res.Bindings, pairwise.Bindings)
			}
			out := wire{Vars: res.Vars, Bindings: res.Bindings, Plan: res.Plan, Cache: res.Cache, Generation: res.Generation}
			if out.Bindings == nil {
				out.Bindings = []query.Binding{}
			}
			body, err = json.Marshal(map[string]any{"data": out})
			return err
		})
		return body, res, err
	}

	live := func() []string {
		var ids []string
		_ = tr.View(func(img *config.Image) error { ids = img.RegionIDs(); return nil })
		return ids
	}
	pick := func() string { ids := live(); return ids[rng.Intn(len(ids))] }
	relSets := []string{"{N, NW:N, N:NE, NW:N:NE}", "{S, S:SW, S:SE, S:SW:SE}", "{E, NE:E, E:SE}", "{NW, W, SW}", "{B, B:N, B:S}"}
	next := 1000
	newID := func() string { next++; return fmt.Sprintf("n%04d", next) }
	newRegion := func() geom.Region {
		return geom.Rgn(gen.StarPolygon(rng.Float64()*100, rng.Float64()*100, 2, 4, 8))
	}

	queries, outcomes := 0, map[string]int{}
	for step := 0; step < 200; step++ {
		var err error
		switch k := rng.Intn(12); k {
		case 0:
			err = tr.AddRegion(newID(), "", snapColors[rng.Intn(len(snapColors))], newRegion())
		case 1:
			err = tr.SetRegionGeometry(pick(), newRegion())
		case 2:
			err = tr.RenameRegion(pick(), newID())
		case 3:
			if len(live()) > 10 {
				err = tr.RemoveRegion(pick())
			}
		case 4:
			err = tr.BulkAddRegions([]config.BulkRegion{
				{ID: newID(), Color: "red", Geometry: newRegion()},
				{ID: newID(), Color: "blue", Geometry: newRegion()},
			})
		default:
			var text string
			args := map[string]string{"ref": pick(), "c": snapColors[rng.Intn(len(snapColors))]}
			set := relSets[rng.Intn(len(relSets))]
			switch rng.Intn(8) {
			case 0:
				text = "q(x, y) :- y = $ref, x " + set + " y"
			case 1:
				text = "q(x, y) :- x = $ref, x " + set + " y"
			case 2:
				text = "q(x, y) :- y = $ref, color(x) = $c, x " + set + " y"
			case 3:
				text = "q(x, y) :- y = $ref, not x " + set + " y"
			case 4: // a never-seen, parameter-free text (cached exec state)
				text = fmt.Sprintf("q(x, y) :- y = %s, x %s y", args["ref"], set)
			case 5: // a removed or renamed-away region: the error path
				args["ref"] = "w9999"
				text = "q(x, y) :- y = $ref, x " + set + " y"
			case 6: // pinned primary over an attribute-filtered reference side
				text = "q(x, y) :- x = $ref, color(y) = $c, x " + set + " y"
			case 7:
				text = "q(x, y) :- x = $ref, color(y) != $c, not x " + set + " y"
			}
			queries++
			want, ref, refErr := reference(text, args)
			rec := serveQuery(h, text, args)
			if refErr != nil {
				if rec.Code == http.StatusOK || !strings.Contains(rec.Body.String(), strings.ReplaceAll(refErr.Error(), `"`, `\"`)) {
					t.Fatalf("step %d %q: reference fails with %q, handler answered %d %s", step, text, refErr, rec.Code, rec.Body)
				}
				outcomes["error"]++
				continue
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("step %d %q: status %d %s", step, text, rec.Code, rec.Body)
			}
			if got := bytes.TrimSpace(rec.Body.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("step %d %q %v: handler body differs from the from-scratch evaluator\n got %s\nwant %s", step, text, args, got, want)
			}
			if got, want := rec.Header().Get("ETag"), fmt.Sprintf("\"g%d\"", ref.Generation); got != want {
				t.Fatalf("step %d: ETag %s, want %s", step, got, want)
			}
			outcomes[ref.Cache]++
		}
		if err != nil {
			t.Fatalf("step %d: edit failed: %v", step, err)
		}
	}
	for _, o := range []string{"hit", "miss", "replan", "error"} {
		if outcomes[o] == 0 {
			t.Errorf("stream of %d queries never produced outcome %q: %v", queries, o, outcomes)
		}
	}
	builds, reuses := snapshotCounters(t, h)
	if builds < 2 || reuses == 0 || builds+reuses != queries {
		t.Errorf("snapshot builds %d + reuses %d over %d queries: want both exercised and one count per query", builds, reuses, queries)
	}
}

// TestQuerySnapshotSurvivesRejectedEdit: an invalid PUT geometry is refused
// (400 — geometry validation fails before the 422 degenerate_region check
// can) and the next query is served from the unchanged snapshot.
func TestQuerySnapshotSurvivesRejectedEdit(t *testing.T) {
	tr := trackedWorld(t, workload.New(3).Scatter(12, 6), core.StoreOptions{Workers: 1})
	h := quietHandler(tr, nil)
	const text = "q(x, y) :- y = w0003, x {N, NE, NW, N:NE, N:NW} y"
	before := serveQuery(h, text, nil)
	if before.Code != http.StatusOK {
		t.Fatalf("status %d %s", before.Code, before.Body)
	}
	// A bow-tie ring: not a simple polygon.
	put := httptest.NewRequest("PUT", "/v1/regions/w0003",
		strings.NewReader(`{"wkt":"POLYGON((0 0, 4 4, 4 0, 0 4, 0 0))"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid geometry: status %d %s, want 400", rec.Code, rec.Body)
	}
	after := serveQuery(h, text, nil)
	wantBody := strings.Replace(before.Body.String(), `"cache":"miss"`, `"cache":"hit"`, 1)
	if after.Code != http.StatusOK || after.Body.String() != wantBody {
		t.Errorf("query after the rejected edit: %d %s\nwant %s", after.Code, after.Body, wantBody)
	}
	if builds, reuses := snapshotCounters(t, h); builds != 1 || reuses != 1 {
		t.Errorf("snapshot builds %d reuses %d after a rejected edit, want 1 and 1", builds, reuses)
	}
}

// fixedAnswerWorld is n boxes of which exactly five lie strictly north of
// the pinned reference w0000; the rest tile the south, so the query below
// has the same answer set at every n.
func fixedAnswerWorld(tb testing.TB, n int) *config.Tracked {
	regions := []geom.Region{workload.BoxRegion(0, 0, 10, 10)}
	for i := 0; i < 5; i++ {
		regions = append(regions, workload.BoxRegion(1+float64(i), 20+3*float64(i), 2+float64(i), 22+3*float64(i)))
	}
	for i := len(regions); i < n; i++ {
		x, y := float64(i%40)*3-60, -10-float64(i/40)*3
		regions = append(regions, workload.BoxRegion(x, y, x+2, y+2))
	}
	return trackedWorld(tb, regions, core.StoreOptions{})
}

const fixedAnswerQuery = "q(x, y) :- y = $ref, x {N} y"

// TestQueryRequestCostIndependentOfWorldSize: a warm pinned-reference query
// with a fixed answer set allocates (nearly) the same number of objects over
// 100 and over 800 regions — the request no longer rebuilds, re-validates or
// copies the world — and the snapshot is built once per generation.
func TestQueryRequestCostIndependentOfWorldSize(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{100, 800} {
		tr := fixedAnswerWorld(t, n)
		h := quietHandler(tr, nil)
		args := map[string]string{"ref": "w0000"}
		run := func() {
			rec := serveQuery(h, fixedAnswerQuery, args)
			var out struct {
				Data struct {
					Bindings []map[string]string `json:"bindings"`
				} `json:"data"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || len(out.Data.Bindings) != 5 {
				t.Fatalf("n=%d: status %d, %d bindings (err %v), want 200 with 5", n, rec.Code, len(out.Data.Bindings), err)
			}
		}
		run() // warm: plan cached, snapshot built
		const runs = 20
		allocs[n] = testing.AllocsPerRun(runs, run)
		if builds, reuses := snapshotCounters(t, h); builds != 1 || reuses != runs+1 {
			t.Errorf("n=%d: snapshot builds %d reuses %d, want 1 and %d", n, builds, reuses, runs+1)
		}
		if err := tr.AddRegion("late", "", "", workload.BoxRegion(100, -100, 102, -98)); err != nil {
			t.Fatal(err)
		}
		run()
		run()
		if builds, _ := snapshotCounters(t, h); builds != 2 {
			t.Errorf("n=%d: snapshot builds %d after one edit and two queries, want 2", n, builds)
		}
	}
	t.Logf("allocs per warm query: n=100 %.0f, n=800 %.0f", allocs[100], allocs[800])
	if allocs[800] > 1.5*allocs[100] {
		t.Errorf("allocations per warm query grew %.0f → %.0f (>1.5x) from 100 to 800 regions", allocs[100], allocs[800])
	}
}

// TestQueryAccessLineReportsSnapshotBuild: the request that paid for the
// rebuild says so on its access line; the ones that reuse it do not.
func TestQueryAccessLineReportsSnapshotBuild(t *testing.T) {
	var logs bytes.Buffer
	tr := trackedWorld(t, workload.New(5).Scatter(8, 6), core.StoreOptions{Workers: 1})
	h := quietHandler(tr, slog.New(slog.NewJSONHandler(&logs, nil)))
	for i := 0; i < 2; i++ {
		if rec := serveQuery(h, "q(x) :- color(x) = red", nil); rec.Code != http.StatusOK {
			t.Fatalf("status %d %s", rec.Code, rec.Body)
		}
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"snapshot_build_ns":`) || strings.Contains(lines[1], "snapshot_build_ns") {
		t.Errorf("access lines:\n%s\nwant snapshot_build_ns on the first only", logs.String())
	}
}

// BenchmarkHandleQuery is one warm POST /v1/query through the handler on
// the read-mix world shape: the repeated pinned-reference text of the
// benchmark's mix, plan cached, the pinned region rotating.
func BenchmarkHandleQuery(b *testing.B) {
	tr := trackedWorld(b, workload.New(1).Cluster(800, 100, 16), core.StoreOptions{})
	h := quietHandler(tr, nil)
	const text = "q(x, y) :- y = $ref, x {N, NW:N, N:NE, NW:N:NE} y"
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"q":%q,"args":{"ref":"w%04d"}}`, text, i%800))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body(0))))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body(i))))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
