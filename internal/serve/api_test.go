package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/serve"
)

// TestRouteInventory: API.md documents every mounted route, and documents
// no route that is not mounted — every "### `METHOD /path`" heading and
// every row of its inventory table names one — so the doc and the route
// table cannot drift apart silently, in either direction.
func TestRouteInventory(t *testing.T) {
	tr, err := config.Track(config.Greece(), core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	srv := serve.New(tr, serve.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	routes := srv.Routes()
	if len(routes) == 0 {
		t.Fatal("Routes() is empty")
	}
	mounted := map[string]bool{}
	for _, rt := range routes {
		if rt.Method == "" || rt.Path == "" || rt.Name == "" {
			t.Errorf("incomplete route entry: %+v", rt)
		}
		if !strings.HasPrefix(rt.Path, "/v1/") && !strings.HasPrefix(rt.Path, "/debug/") && rt.Path != "/healthz" {
			t.Errorf("path %s is not under /v1 or /debug", rt.Path)
		}
		if want := rt.Method + " " + rt.Path; !bytes.Contains(doc, []byte(want)) {
			t.Errorf("API.md does not document %q", want)
		}
		mounted[rt.Method+" "+rt.Path] = true
	}
	// A documented route: a code span opening with a method and a path, cut
	// at its query string or optional part; "/debug/pprof/*" is the subtree
	// mounted at "/debug/pprof/".
	span := regexp.MustCompile("`((?:GET|POST|PUT|DELETE) /[^`?\\[ ]*)")
	documented := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "### ") && !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			documented++
			if route := strings.TrimSuffix(m[1], "*"); !mounted[route] {
				t.Errorf("API.md documents %q, which is not a mounted route: %s", route, line)
			}
		}
	}
	if documented < len(routes) {
		t.Errorf("found %d documented routes in API.md headings and tables for %d mounted ones — the pattern rotted", documented, len(routes))
	}
}

// --- reason endpoints ---

type checkWire struct {
	Satisfiable bool              `json:"satisfiable"`
	Witness     map[string]string `json:"witness"`
	Stats       struct {
		Vars             int  `json:"vars"`
		Edges            int  `json:"edges"`
		FastPathEligible bool `json:"fastpath_eligible"`
		FastPathDecided  bool `json:"fastpath_decided"`
		JointApplied     bool `json:"joint_applied"`
		JointRejected    bool `json:"joint_rejected"`
		SolverBranches   int  `json:"solver_branches"`
	} `json:"stats"`
}

func TestReasonCheckEndpoint(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})

	// Satisfiable disjunctive network: the witness must realise every
	// constraint (verified with ComputeCDR below).
	req := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "{N, NE}"},
			{"x": "b", "y": "c", "relation": "N"},
			{"x": "c", "y": "a", "relation": "{S, SW, S:SW}"},
		},
	}
	var out checkWire
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", req, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !out.Satisfiable {
		t.Fatal("satisfiable network reported unsat")
	}
	if out.Stats.Vars != 3 || out.Stats.Edges != 3 {
		t.Errorf("stats = %+v", out.Stats)
	}
	regions := map[string]geom.Region{}
	for name, wkt := range out.Witness {
		g, err := geom.ParseWKT(wkt)
		if err != nil {
			t.Fatalf("witness %s does not parse: %v", name, err)
		}
		regions[name] = g
	}
	for _, c := range req["constraints"].([]map[string]string) {
		allowed, err := core.ParseRelationSet(c["relation"])
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.ComputeCDR(regions[c["x"]], regions[c["y"]])
		if err != nil {
			t.Fatal(err)
		}
		if !allowed.Contains(got) {
			t.Errorf("witness violates %s %s %s: computed %s", c["x"], c["relation"], c["y"], got)
		}
	}

	// Unsatisfiable network: 200 with satisfiable=false, not an error.
	unsat := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "N"},
			{"x": "b", "y": "a", "relation": "N"},
		},
	}
	var uout checkWire
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", unsat, &uout); code != http.StatusOK {
		t.Fatalf("unsat: status = %d", code)
	}
	if uout.Satisfiable || len(uout.Witness) != 0 {
		t.Errorf("unsat network: %+v", uout)
	}

	// In-fragment networks decide on the fast path without entering the
	// solver.
	frag := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "N"},
			{"x": "b", "y": "c", "relation": "NW"},
		},
	}
	var fout checkWire
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", frag, &fout); code != http.StatusOK {
		t.Fatalf("fragment: status = %d", code)
	}
	if !fout.Satisfiable || !fout.Stats.FastPathDecided || fout.Stats.SolverBranches != 0 {
		t.Errorf("fragment network did not decide on the fast path: %+v", fout.Stats)
	}

	// Joint topology: a proper part cannot be strictly north.
	joint := map[string]any{
		"constraints": []map[string]string{{"x": "a", "y": "b", "relation": "N"}},
		"topology":    []map[string]string{{"x": "a", "y": "b", "relation": "TPP|NTPP"}},
	}
	var jout checkWire
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", joint, &jout); code != http.StatusOK {
		t.Fatalf("joint: status = %d", code)
	}
	if jout.Satisfiable || !jout.Stats.JointApplied || !jout.Stats.JointRejected {
		t.Errorf("joint rejection: %+v", jout)
	}

	// Error surface: bad relation text, oversized network, empty scenario
	// budget on an adversarial instance.
	bad := map[string]any{"constraints": []map[string]string{{"x": "a", "y": "b", "relation": "XYZ"}}}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", bad, nil); code != http.StatusBadRequest {
		t.Errorf("bad relation: status = %d", code)
	}
}

// TestReasonCheckRejectsAblationKnobs: the solver ablations are library
// options, not request fields; the body decoder refuses them like any other
// unknown field.
func TestReasonCheckRejectsAblationKnobs(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	for _, knob := range []string{"no_fast_path", "no_parallel"} {
		req := map[string]any{
			"constraints": []map[string]string{{"x": "a", "y": "b", "relation": "N"}},
			knob:          true,
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", knob, code)
		}
	}
}

func TestReasonNetworkTooLarge(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{MaxNetwork: 4})
	vars := make([]string, 5)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	req := map[string]any{"variables": vars}
	var errOut struct {
		Error struct {
			Code    string `json:"code"`
			Details struct {
				Vars int `json:"vars"`
				Max  int `json:"max"`
			} `json:"details"`
		} `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", req, &errOut); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", code)
	}
	if errOut.Error.Code != "network_too_large" || errOut.Error.Details.Vars != 5 || errOut.Error.Details.Max != 4 {
		t.Errorf("413 envelope = %+v", errOut.Error)
	}
}

func TestReasonCheckTimeout(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{RequestTimeout: time.Nanosecond})
	req := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "{N, S}"},
			{"x": "b", "y": "c", "relation": "{N, S}"},
			{"x": "c", "y": "a", "relation": "{N, S}"},
		},
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/check", req, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
}

func TestReasonEntailEndpoint(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	req := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "N"},
			{"x": "b", "y": "c", "relation": "N"},
		},
		"x": "a", "y": "c",
	}
	var out struct {
		Relation string `json:"relation"`
		Count    int    `json:"count"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/entail", req, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Count == 0 || out.Count == 511 {
		t.Errorf("entail N∘N answered %q (%d relations) — expected a proper subset", out.Relation, out.Count)
	}
	if !strings.Contains(out.Relation, "N") {
		t.Errorf("entail N∘N = %q does not include N", out.Relation)
	}

	// An inconsistent network entails everything: the query is a 422.
	bad := map[string]any{
		"constraints": []map[string]string{
			{"x": "a", "y": "b", "relation": "N"},
			{"x": "b", "y": "a", "relation": "N"},
			{"x": "a", "y": "c", "relation": "E"},
		},
		"x": "a", "y": "c",
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/entail", bad, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("inconsistent entail: status = %d, want 422", code)
	}
	// Unknown variables are client errors.
	unk := map[string]any{
		"constraints": []map[string]string{{"x": "a", "y": "b", "relation": "N"}},
		"x":           "a", "y": "zz",
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/entail", unk, nil); code != http.StatusBadRequest {
		t.Errorf("unknown variable: status = %d, want 400", code)
	}
}

func TestReasonComposeEndpoint(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	var out struct {
		Result string `json:"result"`
		Count  int    `json:"count"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/compose", map[string]string{"r1": "N", "r2": "N"}, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Count == 0 || !strings.Contains(out.Result, "N") {
		t.Errorf("N∘N = %q (%d)", out.Result, out.Count)
	}
	// Inverse: a single-tile N primary pins the reference below it, but the
	// reference may itself span several southern tiles (paper §5.2) — the
	// exact 5-relation answer is pinned.
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/compose", map[string]string{"r": "N"}, &out); code != http.StatusOK {
		t.Fatalf("inverse: status = %d", code)
	}
	if out.Count != 5 || out.Result != "{S, S:SW, S:SE, SW:SE, S:SW:SE}" {
		t.Errorf("inv(N) = %q (%d), want the 5 southern relations", out.Result, out.Count)
	}
	// Both forms at once is a client error, as is neither.
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/compose", map[string]string{"r": "N", "r1": "N", "r2": "N"}, nil); code != http.StatusBadRequest {
		t.Errorf("mixed compose request: status = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/reason/compose", map[string]string{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty compose request: status = %d", code)
	}
}
