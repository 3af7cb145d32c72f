package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
)

// TestWriteRouteCosts builds a durable primary the way cardirectd does —
// serve → replica.Primary → persist.Store (-fsync always) → config.Tracked
// — and pins what each write route costs at every layer: WAL records and
// fsyncs, shipped stream records, store generations. An accepted edit is
// one of each (a bulk logs one record per region, still under one fsync);
// a self-rename and every refused edit cost nothing anywhere.
func TestWriteRouteCosts(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ps, err := persist.Open(t.TempDir(), config.Greece(), persist.Options{Pct: true, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	tr := ps.Tracked()
	prim := replica.NewPrimary(tr, ps, replica.PrimaryOptions{Pct: true})
	ts := httptest.NewServer(serve.New(tr, serve.Options{Logger: logger, Persist: ps, Repl: prim, Editor: prim}).Handler())
	t.Cleanup(func() { ts.Close(); ps.Close() })

	const (
		square = "POLYGON ((300 300, 340 300, 340 340, 300 340, 300 300))"
		moved  = "POLYGON ((400 400, 440 400, 440 440, 400 440, 400 400))"
	)
	bulk := func(ids ...string) string {
		var sb strings.Builder
		for i, id := range ids {
			x := 500 + 20*i
			quoted, _ := json.Marshal(id)
			fmt.Fprintf(&sb, `{"id":%s,"wkt":"POLYGON ((%d 500, %d 500, %d 510, %d 510, %d 500))"}`+"\n", quoted, x, x+10, x+10, x, x)
		}
		return sb.String()
	}
	type cost struct{ records, fsyncs, shipped, gens int64 }
	for _, c := range []struct {
		name, method, path string
		body               any
		status             int
		cost               cost
	}{
		{"add", "POST", "/v1/regions", map[string]string{"id": "box", "wkt": square}, 201, cost{1, 1, 1, 1}},
		{"put", "PUT", "/v1/regions/box", map[string]string{"wkt": moved}, 200, cost{1, 1, 1, 1}},
		{"rename", "POST", "/v1/regions/box/rename", map[string]string{"new_id": "box2"}, 200, cost{1, 1, 1, 1}},
		{"self-rename", "POST", "/v1/regions/box2/rename", map[string]string{"new_id": "box2"}, 200, cost{}},
		{"delete", "DELETE", "/v1/regions/box2", nil, 204, cost{1, 1, 1, 1}},
		{"bulk of 3", "POST", "/v1/bulk", bulk("u1", "u2", "u3"), 200, cost{3, 1, 1, 1}},
		{"refused add", "POST", "/v1/regions", map[string]string{"id": "attica", "wkt": square}, 409, cost{}},
		{"refused put", "PUT", "/v1/regions/ghost", map[string]string{"wkt": square}, 404, cost{}},
		{"refused rename", "POST", "/v1/regions/attica/rename", map[string]string{"new_id": "crete"}, 409, cost{}},
		{"refused self-rename", "POST", "/v1/regions/ghost/rename", map[string]string{"new_id": "ghost"}, 404, cost{}},
		{"refused delete", "DELETE", "/v1/regions/ghost", nil, 404, cost{}},
		{"refused bulk", "POST", "/v1/bulk", bulk("v1", "attica", "v3"), 409, cost{}},
		// An id, name or colour XML cannot carry would be renamed by the
		// next XML snapshot, so it is refused at the edge.
		{"refused control-char id", "POST", "/v1/regions", map[string]string{"id": "a\u0001b", "wkt": square}, 400, cost{}},
		{"refused noncharacter name", "POST", "/v1/regions", map[string]string{"id": "n1", "name": "n\uFFFE", "wkt": square}, 400, cost{}},
		{"refused escape-code color", "POST", "/v1/regions", map[string]string{"id": "c1", "color": "\u001b[31m", "wkt": square}, 400, cost{}},
		{"refused control-char bulk line", "POST", "/v1/bulk", bulk("w1", "w\u00002", "w3"), 400, cost{}},
		{"refused control-char rename", "POST", "/v1/regions/attica/rename", map[string]string{"new_id": "att\u0007ica"}, 400, cost{}},
	} {
		at := func() cost {
			st := ps.Status()
			return cost{st.WAL.Records, st.WAL.Fsyncs, int64(prim.Head()), int64(tr.Store().Generation())}
		}
		before := at()
		var out struct {
			ID string `json:"id"`
		}
		var dst any = &out
		if c.status == http.StatusNoContent {
			dst = nil
		}
		if got := doJSON(t, c.method, ts.URL+c.path, c.body, dst); got != c.status {
			t.Errorf("%s: status %d, want %d", c.name, got, c.status)
		}
		after := at()
		got := cost{after.records - before.records, after.fsyncs - before.fsyncs, after.shipped - before.shipped, after.gens - before.gens}
		if got != c.cost {
			t.Errorf("%s: cost {records fsyncs shipped gens} = %v, want %v", c.name, got, c.cost)
		}
		if c.name == "self-rename" && out.ID != "box2" {
			t.Errorf("self-rename answered region %q, want box2", out.ID)
		}
	}
}
