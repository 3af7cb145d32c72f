package serve_test

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/persist"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
)

// newDurableServer boots an httptest server over a persist.Store seeded
// with the Greece fixture.
func newDurableServer(t *testing.T) (*httptest.Server, *persist.Store) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ps, err := persist.Open(t.TempDir(), config.Greece(), persist.Options{
		Pct: true, Logger: logger, Sync: wal.Options{Policy: wal.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(ps.Tracked(), serve.Options{Logger: logger, Persist: ps})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ps.Close()
		ps.Tracked().Close()
	})
	return ts, ps
}

// TestAdminDisabled: without -data the admin endpoints answer 404.
func TestAdminDisabled(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	if got := doJSON(t, "GET", ts.URL+"/v1/admin/status", nil, nil); got != http.StatusNotFound {
		t.Errorf("GET /v1/admin/status without persistence: %d, want 404", got)
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/admin/snapshot", nil, nil); got != http.StatusNotFound {
		t.Errorf("POST /v1/admin/snapshot without persistence: %d, want 404", got)
	}
}

// TestGhostSelfRenameLogsNothing: renaming a missing region onto its own id
// answers 404 without a WAL record — the 404 used to come from the response
// lookup, after the no-op had been logged and shipped.
func TestGhostSelfRenameLogsNothing(t *testing.T) {
	ts, ps := newDurableServer(t)
	before := ps.Status().WAL.Records
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	code := doJSON(t, "POST", ts.URL+"/v1/regions/ghost/rename", map[string]string{"new_id": "ghost"}, &env)
	if code != http.StatusNotFound || env.Error.Code != "unknown_region" {
		t.Errorf("ghost self-rename: %d %q, want 404 unknown_region", code, env.Error.Code)
	}
	if after := ps.Status().WAL.Records; after != before {
		t.Errorf("a 404 appended %d WAL record(s)", after-before)
	}
}

// TestAdminStatusAndSnapshot exercises the durable shape: edits through
// the HTTP surface land in the WAL, status reports them, snapshot rotates
// the generation and resets the tail.
func TestAdminStatusAndSnapshot(t *testing.T) {
	ts, _ := newDurableServer(t)

	var st persist.Status
	if got := doJSON(t, "GET", ts.URL+"/v1/admin/status", nil, &st); got != http.StatusOK {
		t.Fatalf("GET /v1/admin/status: %d", got)
	}
	if st.Seq != 1 || st.WAL.Records != 0 || st.Err != "" {
		t.Fatalf("fresh status: %+v", st)
	}

	add := map[string]any{"id": "box", "wkt": "POLYGON ((300 300, 340 300, 340 340, 300 340, 300 300))"}
	if got := doJSON(t, "POST", ts.URL+"/v1/regions", add, nil); got != http.StatusCreated {
		t.Fatalf("POST /v1/regions: %d", got)
	}
	if doJSON(t, "GET", ts.URL+"/v1/admin/status", nil, &st); st.WAL.Records != 1 {
		t.Fatalf("edit not write-ahead logged: %+v", st)
	}

	var info persist.SnapshotInfo
	if got := doJSON(t, "POST", ts.URL+"/v1/admin/snapshot", nil, &info); got != http.StatusOK {
		t.Fatalf("POST /v1/admin/snapshot: %d", got)
	}
	if info.Seq != 2 || info.Bytes <= 0 {
		t.Fatalf("snapshot info: %+v", info)
	}
	if doJSON(t, "GET", ts.URL+"/v1/admin/status", nil, &st); st.Seq != 2 {
		t.Fatalf("status after rotation: %+v", st)
	}

	// The pre-rotation record stays in the cumulative WAL counters.
	if st.WAL.Records != 1 {
		t.Errorf("cumulative wal records = %d, want 1", st.WAL.Records)
	}
}

// TestAdminStatusRecoveredFrom asserts the admin surface reports which
// snapshot format recovery loaded: "binary" when the checksummed binary
// file is intact, "xml" after falling back, and nothing for a fresh
// initialisation.
func TestAdminStatusRecoveredFrom(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()
	opts := persist.Options{Pct: true, Logger: logger, Sync: wal.Options{Policy: wal.SyncNever}}

	serveStatus := func(ps *persist.Store) map[string]any {
		t.Helper()
		srv := serve.New(ps.Tracked(), serve.Options{Logger: logger, Persist: ps})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var raw map[string]any
		if got := doJSON(t, "GET", ts.URL+"/v1/admin/status", nil, &raw); got != http.StatusOK {
			t.Fatalf("GET /v1/admin/status: %d", got)
		}
		return raw
	}

	ps, err := persist.Open(dir, config.Greece(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if raw := serveStatus(ps); raw["recovered_from"] != nil {
		t.Errorf("fresh initialisation reports recovered_from = %v", raw["recovered_from"])
	}
	ps.Close()
	ps.Tracked().Close()

	ps2, err := persist.Open(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if raw := serveStatus(ps2); raw["recovered_from"] != "binary" {
		t.Errorf("recovered_from = %v, want binary", raw["recovered_from"])
	}
	ps2.Close()
	ps2.Tracked().Close()

	// Remove the binary snapshot: the status must report the XML fallback.
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.bin"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no binary snapshot written: %v, %v", matches, err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	ps3, err := persist.Open(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ps3.Close(); ps3.Tracked().Close() }()
	if raw := serveStatus(ps3); raw["recovered_from"] != "xml" {
		t.Errorf("recovered_from = %v, want xml", raw["recovered_from"])
	}
}

// TestAdminSnapshotEmptyWorld: deleting every region leaves nothing the
// DTD can express; the snapshot endpoint must answer 422, not 500.
func TestAdminSnapshotEmptyWorld(t *testing.T) {
	ts, ps := newDurableServer(t)
	for _, r := range ps.Tracked().Store().Names() {
		if got := doJSON(t, "DELETE", ts.URL+"/v1/regions/"+r, nil, nil); got != http.StatusNoContent {
			t.Fatalf("DELETE %s: %d", r, got)
		}
	}
	if got := doJSON(t, "POST", ts.URL+"/v1/admin/snapshot", nil, nil); got != http.StatusUnprocessableEntity {
		t.Errorf("snapshot of empty world: %d, want 422", got)
	}
}
