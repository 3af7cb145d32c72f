package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/query"
	"cardirect/internal/serve"
)

// newGreeceServer boots an httptest server over the Fig. 11 fixture.
func newGreeceServer(t *testing.T, opt serve.Options) (*httptest.Server, *config.Tracked) {
	t.Helper()
	tr, err := config.Track(config.Greece(), core.StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ts := httptest.NewServer(serve.New(tr, opt).Handler())
	t.Cleanup(func() {
		ts.Close()
		tr.Close()
	})
	return ts, tr
}

// doJSON issues a request, decodes the JSON body into out (when non-nil)
// and returns the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", method, url, err)
		}
		// API responses wrap payloads as {"data": ...}; unwrap before
		// decoding. Non-enveloped surfaces (/debug/vars) and error bodies
		// decode as-is.
		var env struct {
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(raw, &env); err == nil && env.Data != nil {
			raw = env.Data
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	var out struct {
		Status  string `json:"status"`
		Regions int    `json:"regions"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Status != "ok" || out.Regions != tr.Store().Len() {
		t.Fatalf("body = %+v", out)
	}
}

func TestRegionsList(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	var out struct {
		Regions []struct {
			ID       string `json:"id"`
			Polygons int    `json:"polygons"`
			Edges    int    `json:"edges"`
		} `json:"regions"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/regions", nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Regions) != len(config.Greece().Regions) {
		t.Fatalf("listed %d regions", len(out.Regions))
	}
	for i := 1; i < len(out.Regions); i++ {
		if out.Regions[i-1].ID >= out.Regions[i].ID {
			t.Fatalf("listing not sorted: %q before %q", out.Regions[i-1].ID, out.Regions[i].ID)
		}
	}
	for _, r := range out.Regions {
		if r.Polygons == 0 || r.Edges == 0 {
			t.Fatalf("region %s has empty geometry summary", r.ID)
		}
	}
}

func TestRegionGetRoundtrip(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	var out struct {
		ID      string          `json:"id"`
		WKT     string          `json:"wkt"`
		GeoJSON json.RawMessage `json:"geojson"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/regions/crete", nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.ID != "crete" {
		t.Fatalf("id = %q", out.ID)
	}
	// Both interchange formats must parse back to the stored geometry.
	want := config.Greece().FindRegion("crete").Geometry()
	fromWKT, err := geom.ParseWKT(out.WKT)
	if err != nil {
		t.Fatalf("returned WKT does not parse: %v", err)
	}
	if geom.FormatWKT(fromWKT) != geom.FormatWKT(want) {
		t.Error("WKT roundtrip diverges from stored geometry")
	}
	fromGJ, err := geom.ParseGeoJSON(out.GeoJSON)
	if err != nil {
		t.Fatalf("returned GeoJSON does not parse: %v", err)
	}
	if geom.FormatWKT(fromGJ) != geom.FormatWKT(want) {
		t.Error("GeoJSON roundtrip diverges from stored geometry")
	}

	var errOut struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/regions/atlantis", nil, &errOut); code != http.StatusNotFound {
		t.Fatalf("unknown region: status = %d", code)
	}
	if errOut.Error.Code != "unknown_region" || errOut.Error.Message == "" {
		t.Errorf("404 envelope = %+v", errOut.Error)
	}
}

// TestRelationDifferential: every served pair answer equals a direct
// Compute-CDR / Compute-CDR% run over the same fixture — the server adds
// transport, not semantics.
func TestRelationDifferential(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	img := config.Greece()
	for _, a := range img.Regions {
		for _, b := range img.Regions {
			if a.ID == b.ID {
				continue
			}
			want, err := core.ComputeCDR(a.Geometry(), b.Geometry())
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Relation string             `json:"relation"`
				Pct      map[string]float64 `json:"pct"`
			}
			url := fmt.Sprintf("%s/v1/relation?primary=%s&reference=%s&pct=1", ts.URL, a.ID, b.ID)
			if code := doJSON(t, "GET", url, nil, &out); code != http.StatusOK {
				t.Fatalf("%s vs %s: status = %d", a.ID, b.ID, code)
			}
			if out.Relation != want.String() {
				t.Errorf("%s vs %s: served %q, computed %q", a.ID, b.ID, out.Relation, want)
			}
			m, _, err := core.ComputeCDRPct(a.Geometry(), b.Geometry())
			if err != nil {
				t.Fatal(err)
			}
			// The store serves through the cached-area fast path, which agrees
			// with the direct split-based computation only to float rounding.
			for _, tl := range core.Tiles() {
				if got, served := m.Get(tl), out.Pct[tl.String()]; math.Abs(got-served) > 1e-9 {
					t.Errorf("%s vs %s tile %s: served %v, computed %v", a.ID, b.ID, tl, served, got)
				}
			}
		}
	}

	// Parameter and lookup errors.
	if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=attica", nil, nil); code != http.StatusBadRequest {
		t.Errorf("missing reference: status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=attica&reference=atlantis", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown reference: status = %d", code)
	}
}

func TestRelationsMatchesStore(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	var out struct {
		Pairs []struct {
			Primary   string `json:"primary"`
			Reference string `json:"reference"`
			Relation  string `json:"relation"`
		} `json:"pairs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relations", nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := tr.Store().Pairs()
	if len(out.Pairs) != len(want) {
		t.Fatalf("served %d pairs, store has %d", len(out.Pairs), len(want))
	}
	for i, p := range out.Pairs {
		if p.Primary != want[i].Primary || p.Reference != want[i].Reference || p.Relation != want[i].Relation.String() {
			t.Fatalf("pair %d: served %+v, store %+v", i, p, want[i])
		}
	}
}

// TestRelationsMatchFromScratch: /v1/relations and /v1/relations?pct=1 serve
// what the batch engines compute from scratch over the document's regions —
// the answer the deleted POST /v1/batch recompute gave — and that route is
// gone.
func TestRelationsMatchFromScratch(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	img := config.Greece()
	regions := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		regions[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	want, err := core.BatchCDR(nil, regions, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPct, err := core.BatchPct(nil, regions, nil)
	if err != nil {
		t.Fatal(err)
	}
	type pairs struct {
		Pairs []struct {
			Primary   string             `json:"primary"`
			Reference string             `json:"reference"`
			Relation  string             `json:"relation"`
			Pct       map[string]float64 `json:"pct"`
		} `json:"pairs"`
	}
	var out, pctOut pairs
	if code := doJSON(t, "GET", ts.URL+"/v1/relations", nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relations?pct=1", nil, &pctOut); code != http.StatusOK {
		t.Fatalf("pct: status = %d", code)
	}
	if len(out.Pairs) != len(want.Pairs) || len(pctOut.Pairs) != len(wantPct.Pairs) {
		t.Fatalf("served %d and %d pairs, computed %d and %d", len(out.Pairs), len(pctOut.Pairs), len(want.Pairs), len(wantPct.Pairs))
	}
	for i, p := range out.Pairs {
		w := want.Pairs[i]
		if p.Primary != w.Primary || p.Reference != w.Reference || p.Relation != w.Relation.String() {
			t.Fatalf("pair %d: served %+v, computed %+v", i, p, w)
		}
	}
	for i, p := range pctOut.Pairs {
		w := wantPct.Pairs[i]
		if p.Primary != w.Primary || p.Reference != w.Reference {
			t.Fatalf("pct pair %d: served %s/%s, computed %s/%s", i, p.Primary, p.Reference, w.Primary, w.Reference)
		}
		for _, tile := range core.Tiles() {
			if got := p.Pct[tile.String()]; got != w.Matrix.Get(tile) {
				t.Fatalf("pct pair %d tile %v: served %v, computed %v", i, tile, got, w.Matrix.Get(tile))
			}
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/batch", nil, nil); code != http.StatusNotFound {
		t.Errorf("POST /v1/batch: status = %d, want 404", code)
	}
}

// TestRelationsTimeout: a server-side request timeout expires the handler
// context; the all-pairs sweep notices within one primary row and the error
// maps to 504. The deadline is generous enough to pass the router but far
// too short for the sweep to matter — the overshoot bound is the abort
// check, not luck.
func TestRelationsTimeout(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{RequestTimeout: time.Nanosecond})
	for _, path := range []string{"/v1/relations", "/v1/relations?pct=1"} {
		start := time.Now()
		code := doJSON(t, "GET", ts.URL+path, nil, nil)
		elapsed := time.Since(start)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status = %d, want 504", path, code)
		}
		if elapsed > time.Second {
			t.Fatalf("timed-out %s took %v", path, elapsed)
		}
	}
}

func TestSelectEndpoint(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	var out struct {
		Matches []string `json:"matches"`
		Stats   struct {
			Candidates int `json:"Candidates"`
		} `json:"stats"`
	}
	const relSet = "{N, N:NE, NE, N:NW, NW}"
	if code := doJSON(t, "GET", ts.URL+"/v1/select?reference=attica&relation="+url.QueryEscape(relSet), nil, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	// Differential: same answer as the direct live-index selection.
	allowed, err := core.ParseRelationSet(relSet)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, _, err := tr.Index().SelectStatsCtx(context.Background(), config.Greece().FindRegion("attica").Geometry(), allowed)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, len(wantIDs))
	for _, id := range wantIDs {
		if id != "attica" {
			want[id] = true
		}
	}
	if len(out.Matches) != len(want) {
		t.Fatalf("served %v, want %v", out.Matches, wantIDs)
	}
	for _, id := range out.Matches {
		if !want[id] {
			t.Errorf("unexpected match %q", id)
		}
		if id == "attica" {
			t.Error("reference leaked into matches without B")
		}
	}

	if code := doJSON(t, "GET", ts.URL+"/v1/select?reference=atlantis&relation=N", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown reference: status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/select?reference=attica&relation=XYZ", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad relation: status = %d", code)
	}
}

// TestQueryEndpoint: served bindings equal a direct evaluator run.
func TestQueryEndpoint(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	const q = "q(x, y) :- y = peloponnesos, x {N, NE, E} y"
	ev, err := query.NewEvaluator(config.Greece())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}

	var out struct {
		Vars     []string            `json:"vars"`
		Bindings []map[string]string `json:"bindings"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]string{"q": q}, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Vars) != 2 || out.Vars[0] != "x" || out.Vars[1] != "y" {
		t.Fatalf("vars = %v", out.Vars)
	}
	if len(out.Bindings) != len(want) {
		t.Fatalf("served %d bindings, evaluator found %d", len(out.Bindings), len(want))
	}
	for i, b := range out.Bindings {
		for v, id := range b {
			if want[i][v] != id {
				t.Fatalf("binding %d: %s = %q, want %q", i, v, id, want[i][v])
			}
		}
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]string{"q": "q(x) :- x $ y"}, nil); code != http.StatusBadRequest {
		t.Errorf("unparsable query: status = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/query", map[string]string{}, nil); code != http.StatusBadRequest {
		t.Errorf("missing q: status = %d", code)
	}
}

// TestRegionCRUD drives the full edit lifecycle over HTTP and checks that
// the delta-maintained store answers relations against the edited region.
func TestRegionCRUD(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	n0 := tr.Store().Len()

	// Create: a square well north-east of everything.
	wkt := geom.FormatWKT(geom.Rgn(geom.Poly(
		geom.Pt(3000, 3100), geom.Pt(3100, 3100), geom.Pt(3100, 3000), geom.Pt(3000, 3000),
	)))
	add := map[string]string{"id": "outpost", "name": "Outpost", "color": "gray", "wkt": wkt}
	var created struct {
		ID       string `json:"id"`
		Polygons int    `json:"polygons"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/regions", add, &created); code != http.StatusCreated {
		t.Fatalf("add: status = %d", code)
	}
	if created.ID != "outpost" || created.Polygons != 1 {
		t.Fatalf("add response = %+v", created)
	}
	if tr.Store().Len() != n0+1 {
		t.Fatalf("store did not grow: %d", tr.Store().Len())
	}

	// Duplicate id conflicts.
	if code := doJSON(t, "POST", ts.URL+"/v1/regions", add, nil); code != http.StatusConflict {
		t.Errorf("duplicate add: status = %d", code)
	}

	// The new region is immediately queryable from the delta store.
	var rel struct {
		Relation string `json:"relation"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=outpost&reference=crete", nil, &rel); code != http.StatusOK {
		t.Fatalf("relation after add: status = %d", code)
	}
	if rel.Relation == "" {
		t.Fatal("empty relation for added region")
	}

	// Geometry update via GeoJSON.
	gj, err := geom.FormatGeoJSON(geom.Rgn(geom.Poly(
		geom.Pt(-500, -400), geom.Pt(-400, -400), geom.Pt(-400, -500), geom.Pt(-500, -500),
	)))
	if err != nil {
		t.Fatal(err)
	}
	upd := map[string]json.RawMessage{"geojson": gj}
	if code := doJSON(t, "PUT", ts.URL+"/v1/regions/outpost", upd, nil); code != http.StatusOK {
		t.Fatalf("set geometry: status = %d", code)
	}
	var rel2 struct {
		Relation string `json:"relation"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=outpost&reference=crete", nil, &rel2); code != http.StatusOK {
		t.Fatalf("relation after move: status = %d", code)
	}
	if rel2.Relation == rel.Relation {
		t.Errorf("relation unchanged after moving across the plane: %q", rel2.Relation)
	}

	// Rename, then the old id is gone.
	if code := doJSON(t, "POST", ts.URL+"/v1/regions/outpost/rename", map[string]string{"new_id": "frontier"}, nil); code != http.StatusOK {
		t.Fatalf("rename: status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/regions/outpost", nil, nil); code != http.StatusNotFound {
		t.Errorf("old id after rename: status = %d", code)
	}

	// Delete; gone from document and store.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/regions/frontier", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status = %d", resp.StatusCode)
	}
	if tr.Store().Len() != n0 {
		t.Fatalf("store Len after delete = %d, want %d", tr.Store().Len(), n0)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/regions/frontier", nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status = %d", code)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracking diverged during CRUD: %v", err)
	}
}

func TestBodyLimit(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{MaxBodyBytes: 64})
	big := `{"q": "` + strings.Repeat("x", 200) + `"}`
	if code := doJSON(t, "POST", ts.URL+"/v1/query", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", code)
	}
}

func TestExpvarSurface(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	// Generate some traffic first.
	doJSON(t, "GET", ts.URL+"/healthz", nil, nil)
	doJSON(t, "GET", ts.URL+"/v1/relation?primary=attica&reference=crete", nil, nil)

	var vars struct {
		Cardirectd map[string]json.RawMessage `json:"cardirectd"`
	}
	if code := doJSON(t, "GET", ts.URL+"/debug/vars", nil, &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars: status = %d", code)
	}
	var reqs int
	if err := json.Unmarshal(vars.Cardirectd["healthz.requests"], &reqs); err != nil || reqs < 1 {
		t.Errorf("healthz.requests = %s (err %v)", vars.Cardirectd["healthz.requests"], err)
	}
	var lat int64
	if err := json.Unmarshal(vars.Cardirectd["relation.latency_ns"], &lat); err != nil || lat <= 0 {
		t.Errorf("relation.latency_ns = %s (err %v)", vars.Cardirectd["relation.latency_ns"], err)
	}
	var store struct {
		Regions int `json:"regions"`
	}
	if err := json.Unmarshal(vars.Cardirectd["store"], &store); err != nil || store.Regions != tr.Store().Len() {
		t.Errorf("store var = %s (err %v)", vars.Cardirectd["store"], err)
	}
}

// TestConcurrentReadsDuringEdits hammers relation reads, selections and
// queries against geometry edits over live HTTP — the end-to-end version of the
// store race test; meaningful under -race.
func TestConcurrentReadsDuringEdits(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	crete := geom.FormatWKT(config.Greece().FindRegion("crete").Geometry())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				switch i % 3 {
				case 0:
					code = doJSON(t, "GET", ts.URL+"/v1/relation?primary=attica&reference=crete", nil, nil)
				case 1:
					code = doJSON(t, "GET", ts.URL+"/v1/select?reference=crete&relation="+url.QueryEscape("{N, N:NE, N:NW}"), nil, nil)
				case 2:
					code = doJSON(t, "GET", ts.URL+"/v1/relations", nil, nil)
				}
				if code != http.StatusOK {
					t.Errorf("read status = %d", code)
					return
				}
			}
		}()
	}
	// Eight query readers share the per-generation query snapshot while the
	// edits below keep invalidating it; every answer must still pin y.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"q":"q(x, y) :- y = $ref, color(x) != none%d, x {N, NE, NW, N:NE, N:NW, B:N} y","args":{"ref":"crete"}}`, g%2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				var out struct {
					Data struct {
						Bindings []map[string]string `json:"bindings"`
					} `json:"data"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(out.Data.Bindings) == 0 {
					t.Errorf("query status = %d, %d bindings, err %v", resp.StatusCode, len(out.Data.Bindings), err)
					return
				}
				for _, b := range out.Data.Bindings {
					if b["y"] != "crete" {
						t.Errorf("query binding %v does not pin y to crete", b)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		if code := doJSON(t, "PUT", ts.URL+"/v1/regions/crete", map[string]string{"wkt": crete}, nil); code != http.StatusOK {
			t.Fatalf("edit %d: status = %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatalf("tracking diverged: %v", err)
	}
}
