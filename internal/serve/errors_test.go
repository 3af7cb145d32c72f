package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/reason"
	"cardirect/internal/wal"
)

// TestStatusOfSentinels pins the sentinel → (status, code) contract: every
// shared sentinel maps to its documented status and machine-readable code,
// wrapped or not.
func TestStatusOfSentinels(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{core.ErrUnknownRegion, http.StatusNotFound, "unknown_region"},
		{config.ErrDuplicateRegion, http.StatusConflict, "duplicate_region"},
		{core.ErrDegenerateRegion, http.StatusUnprocessableEntity, "degenerate_region"},
		{core.ErrNoPct, http.StatusUnprocessableEntity, "pct_disabled"},
		{persist.ErrEmptyWorld, http.StatusUnprocessableEntity, "empty_world"},
		{wal.ErrTooLarge, http.StatusRequestEntityTooLarge, "too_large"},
		{reason.ErrInconsistent, http.StatusUnprocessableEntity, "inconsistent_network"},
		{reason.ErrSearchLimit, http.StatusGatewayTimeout, "search_limit"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{context.Canceled, statusClientClosed, "canceled"},
		// config.ErrUnknownRegion wraps the core sentinel.
		{config.ErrUnknownRegion, http.StatusNotFound, "unknown_region"},
		// Explicit statuses win and fall back to the status's default code.
		{failf(http.StatusNotFound, "gone"), http.StatusNotFound, "not_found"},
		{failf(http.StatusConflict, "clash"), http.StatusConflict, "conflict"},
		{failf(http.StatusRequestEntityTooLarge, "big"), http.StatusRequestEntityTooLarge, "too_large"},
		{failf(http.StatusUnprocessableEntity, "nope"), http.StatusUnprocessableEntity, "unprocessable"},
		{failf(http.StatusInternalServerError, "boom"), http.StatusInternalServerError, "internal"},
		{failf(http.StatusBadRequest, "bad"), http.StatusBadRequest, "bad_request"},
		// failCode pins both status and code.
		{failCode(http.StatusRequestEntityTooLarge, "network_too_large", nil, "too many"),
			http.StatusRequestEntityTooLarge, "network_too_large"},
		// Unmapped errors are client errors.
		{fmt.Errorf("mystery"), http.StatusBadRequest, "bad_request"},
		// Wrapping preserves the mapping.
		{fmt.Errorf("outer: %w", core.ErrUnknownRegion), http.StatusNotFound, "unknown_region"},
		{fmt.Errorf("outer: %w", reason.ErrSearchLimit), http.StatusGatewayTimeout, "search_limit"},
	}
	for _, c := range cases {
		status, code := statusOf(c.err)
		if status != c.status || code != c.code {
			t.Errorf("statusOf(%v) = (%d, %q), want (%d, %q)", c.err, status, code, c.status, c.code)
		}
	}
	// Every sentinel-table entry is exercised above.
	if len(sentinelTable) != 10 {
		t.Errorf("sentinelTable has %d entries, test covers 10", len(sentinelTable))
	}
}

// TestWriteDataEncodeFailure: a value encoding/json refuses must not put a
// 200 on the wire — nothing is written, and the returned error maps to
// 500 internal for the handler wrapper to send.
func TestWriteDataEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	err := writeData(rec, http.StatusOK, map[string]float64{"pct": math.NaN()})
	if err == nil {
		t.Fatal("NaN encoded without error")
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Errorf("failed encode wrote %q, headers %v", rec.Body, rec.Header())
	}
	writeError(rec, err)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"code":"internal"`) {
		t.Errorf("encode failure answered %d %s, want 500 internal", rec.Code, rec.Body)
	}
}

// Routes returns the mounted API routes, including the debug surface.
func (s *Server) Routes() []Route {
	var out []Route
	for _, e := range s.routeTable() {
		out = append(out, e.Route)
	}
	out = append(out,
		Route{Method: "GET", Path: "/debug/vars", Name: "debug.vars"},
		Route{Method: "GET", Path: "/debug/pprof/", Name: "debug.pprof"},
	)
	return out
}
