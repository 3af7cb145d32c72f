package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/geom"
	"cardirect/internal/serve"
)

// etagDo issues one request with an optional If-None-Match header and
// returns the status, the ETag header and the body.
func etagDo(t *testing.T, method, url, inm string, body []byte) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), data
}

// TestETagRevalidation drives the conditional-request contract on every
// validatable endpoint: a 200 carries the generation ETag, a repeat with
// If-None-Match gets 304 with no body, an edit rotates the tag and the
// stale tag stops matching.
func TestETagRevalidation(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	queryBody, err := json.Marshal(map[string]string{"q": "q(x, y) :- y = peloponnesos, x {N, NE, E} y"})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct {
		name, method, url string
		body              []byte
	}{
		{"relation", "GET", ts.URL + "/v1/relation?primary=attica&reference=crete", nil},
		{"select", "GET", ts.URL + "/v1/select?reference=peloponnesos&relation=N", nil},
		{"query", "POST", ts.URL + "/v1/query", queryBody},
		{"relations", "GET", ts.URL + "/v1/relations", nil},
		{"stats", "GET", ts.URL + "/v1/stats", nil},
		{"v1.relation", "GET", ts.URL + "/v1/relation?primary=attica&reference=crete", nil},
		{"v1.relations", "GET", ts.URL + "/v1/relations", nil},
		{"v1.stats", "GET", ts.URL + "/v1/stats", nil},
	}
	tags := map[string]string{}
	for _, ep := range endpoints {
		code, etag, body := etagDo(t, ep.method, ep.url, "", ep.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d (%s)", ep.name, code, body)
		}
		if etag == "" {
			t.Fatalf("%s: 200 response carries no ETag", ep.name)
		}
		if len(body) == 0 {
			t.Fatalf("%s: 200 response has no body", ep.name)
		}
		tags[ep.name] = etag

		// Revalidation: exact tag, a tag list, a weak form, and the
		// wildcard all produce 304 with an empty body.
		for _, inm := range []string{etag, `"bogus", ` + etag, "W/" + etag, "*"} {
			code, etag304, body := etagDo(t, ep.method, ep.url, inm, ep.body)
			if code != http.StatusNotModified {
				t.Errorf("%s: If-None-Match %q: status = %d, want 304", ep.name, inm, code)
			}
			if len(body) != 0 {
				t.Errorf("%s: 304 carries a body: %q", ep.name, body)
			}
			if etag304 != etag {
				t.Errorf("%s: 304 ETag = %q, want %q", ep.name, etag304, etag)
			}
		}
		// A non-matching tag still gets the full response.
		if code, _, _ := etagDo(t, ep.method, ep.url, `"g999999"`, ep.body); code != http.StatusOK {
			t.Errorf("%s: non-matching If-None-Match: status = %d, want 200", ep.name, code)
		}
	}
	// Every endpoint validates against the same store generation.
	for _, ep := range endpoints {
		if tags[ep.name] != tags["relation"] {
			t.Errorf("endpoints disagree on the generation tag: %v", tags)
			break
		}
	}

	// An edit bumps the generation: old tags stop matching, new responses
	// carry a fresh tag.
	wkt := geom.FormatWKT(geom.Rgn(geom.Poly(
		geom.Pt(5000, 5100), geom.Pt(5100, 5100), geom.Pt(5100, 5000), geom.Pt(5000, 5000),
	)))
	if code := doJSON(t, "POST", ts.URL+"/v1/regions", map[string]string{"id": "etag-probe", "wkt": wkt}, nil); code != http.StatusCreated {
		t.Fatalf("edit: status = %d", code)
	}
	for _, ep := range endpoints {
		code, etag, _ := etagDo(t, ep.method, ep.url, tags[ep.name], ep.body)
		if code != http.StatusOK {
			t.Errorf("%s: stale tag after edit: status = %d, want 200", ep.name, code)
		}
		if etag == tags[ep.name] {
			t.Errorf("%s: ETag unchanged across an edit: %q", ep.name, etag)
		}
	}
}

// TestQueryPlanCacheOverHTTP: repeated query texts hit the server's shared
// plan cache, an edit forces a replan, and $-parameters resolve from the
// request's args while sharing one cached plan.
func TestQueryPlanCacheOverHTTP(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	post := func(body any) (int, map[string]any) {
		t.Helper()
		var out map[string]any
		code := doJSON(t, "POST", ts.URL+"/v1/query", body, &out)
		return code, out
	}
	q := map[string]string{"q": "q(x, y) :- y = peloponnesos, x {N, NE, E} y"}
	code, first := post(q)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, first)
	}
	if first["cache"] != "miss" {
		t.Errorf("first request cache = %v, want miss", first["cache"])
	}
	if first["plan"] == nil {
		t.Error("response carries no plan")
	}
	code, second := post(q)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if second["cache"] != "hit" {
		t.Errorf("second request cache = %v, want hit", second["cache"])
	}
	if !jsonEqual(first["bindings"], second["bindings"]) {
		t.Error("cached execution answered differently")
	}

	// Same text, edited store: the plan must be rebuilt, not served stale.
	if err := tr.SetRegionGeometry("attica",
		config.Greece().FindRegion("attica").Geometry().Translate(geom.Pt(0.1, 0))); err != nil {
		t.Fatal(err)
	}
	code, third := post(q)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if third["cache"] != "replan" {
		t.Errorf("post-edit cache = %v, want replan", third["cache"])
	}
	if third["generation"] == first["generation"] {
		t.Error("generation did not advance across the edit")
	}

	// Parameterised text: one plan, many bindings.
	pq := map[string]any{
		"q":    "q(x) :- x = $r",
		"args": map[string]string{"r": "crete"},
	}
	code, p1 := post(pq)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, p1)
	}
	bindings, _ := p1["bindings"].([]any)
	if len(bindings) != 1 {
		t.Fatalf("param query bindings = %v", p1["bindings"])
	}
	if b, _ := bindings[0].(map[string]any); b["x"] != "crete" {
		t.Errorf("param binding = %v, want crete", bindings[0])
	}
	pq["args"] = map[string]string{"r": "attica"}
	code, p2 := post(pq)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if p2["cache"] != "hit" {
		t.Errorf("re-parameterised request cache = %v, want hit (one plan per text)", p2["cache"])
	}
	// Missing parameter is a client error.
	pq["args"] = map[string]string{}
	if code, _ := post(pq); code == http.StatusOK {
		t.Error("unbound parameter should not be 200")
	}
}

func jsonEqual(a, b any) bool {
	ja, err := json.Marshal(a)
	if err != nil {
		return false
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false
	}
	return bytes.Equal(ja, jb)
}

// TestOverflowGeometryRefused: a ring of finite vertices whose area sum
// overflows (SignedArea = +Inf, which is != 0) used to be admitted, and a
// percent read over it answered NaN. Every ingest path refuses it as any
// invalid ring, and the refusals leave listing, ETag and health alone.
func TestOverflowGeometryRefused(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	_, tag, listing := etagDo(t, "GET", ts.URL+"/v1/relations", "", nil)
	_, _, regions := etagDo(t, "GET", ts.URL+"/v1/regions", "", nil)

	const wkt = "POLYGON((-1e200 -1e200, -1e200 1e200, 1e200 1e200, 1e200 -1e200, -1e200 -1e200))"
	ring := json.RawMessage(`{"type":"Polygon","coordinates":[[[-1e200,-1e200],[-1e200,1e200],[1e200,1e200],[1e200,-1e200],[-1e200,-1e200]]]}`)
	for name, do := range map[string]func() int{
		"POST wkt": func() int {
			return doJSON(t, "POST", ts.URL+"/v1/regions", map[string]string{"id": "huge", "wkt": wkt}, nil)
		},
		"POST geojson": func() int {
			return doJSON(t, "POST", ts.URL+"/v1/regions", map[string]any{"id": "huge", "geojson": ring}, nil)
		},
		"PUT wkt": func() int { return doJSON(t, "PUT", ts.URL+"/v1/regions/attica", map[string]string{"wkt": wkt}, nil) },
		"bulk":    func() int { return doJSON(t, "POST", ts.URL+"/v1/bulk", `{"id":"huge","wkt":"`+wkt+`"}`+"\n", nil) },
	} {
		if code := do(); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	if tr.Store().Has("huge") || tr.Err() != nil {
		t.Fatalf("overflow ring admitted (Err %v)", tr.Err())
	}
	code, tag2, listing2 := etagDo(t, "GET", ts.URL+"/v1/relations", "", nil)
	if code != http.StatusOK || tag2 != tag || !bytes.Equal(listing, listing2) {
		t.Errorf("refused edits moved /v1/relations: %d, ETag %s → %s", code, tag, tag2)
	}
	if _, _, regions2 := etagDo(t, "GET", ts.URL+"/v1/regions", "", nil); !bytes.Equal(regions, regions2) {
		t.Error("refused edits changed the /v1/regions listing")
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz after refused edits: %d", code)
	}
}
