package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/reason"
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
	if len(sentinelTable) != 9 {
		t.Errorf("sentinelTable has %d entries, test covers 9", len(sentinelTable))
	}
}
