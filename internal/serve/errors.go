package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/reason"
)

// statusClientClosed is nginx's non-standard 499 "client closed request":
// the request context was cancelled (the client went away), so no status
// will reach anyone — the code exists for the access log and metrics.
const statusClientClosed = 499

// httpError pins an explicit status (and optionally a machine-readable code
// and structured details) onto an error; handlers use it where the sentinel
// mapping is not specific enough.
type httpError struct {
	status  int
	code    string
	details any
	err     error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// failf builds an httpError in one line; the error code falls back to the
// status's default.
func failf(status int, format string, args ...any) error {
	return &httpError{status: status, err: fmt.Errorf(format, args...)}
}

// failCode is failf with an explicit error code and optional details
// payload for the envelope.
func failCode(status int, code string, details any, format string, args ...any) error {
	return &httpError{status: status, code: code, details: details, err: fmt.Errorf(format, args...)}
}

// sentinelTable maps the shared error sentinels to (HTTP status, error
// code). Order matters only for errors wrapping several sentinels, which
// does not occur; the table is covered one-for-one by the status-mapping
// test. config.ErrUnknownRegion wraps core.ErrUnknownRegion, so the single
// core entry covers both layers. Solver outcomes: an unsatisfiable network
// is a 200 with satisfiable=false, never an error; ErrInconsistent is the
// entailment endpoint refusing a meaningless query; ErrSearchLimit is the
// scenario budget running out (the search gave up, like a timeout — raise
// max_scenarios and retry).
var sentinelTable = []struct {
	sentinel error
	status   int
	code     string
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
}

// codeForStatus is the default error code for statuses pinned explicitly
// via failf.
func codeForStatus(status int) string {
	switch status {
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusGatewayTimeout:
		return "timeout"
	case statusClientClosed:
		return "canceled"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "bad_request"
	}
}

// statusOf maps an error to its HTTP status and machine-readable code: an
// explicit httpError wins, then the sentinel table; everything unmapped is
// a client error (400) — the handlers produce no internal errors that are
// not explicitly pinned.
func statusOf(err error) (int, string) {
	var he *httpError
	if errors.As(err, &he) {
		code := he.code
		if code == "" {
			code = codeForStatus(he.status)
		}
		return he.status, code
	}
	for _, m := range sentinelTable {
		if errors.Is(err, m.sentinel) {
			return m.status, m.code
		}
	}
	return http.StatusBadRequest, "bad_request"
}

// The shared response envelope: every endpoint (both prefixes) wraps
// success bodies as {"data": ...} and failures as {"error": {"code",
// "message", "details"}} — one shape for clients to branch on.

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type dataEnvelope struct {
	Data any `json:"data"`
}

// writeError emits the mapped status and the enveloped error body.
func writeError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	body := errorBody{Code: code, Message: err.Error()}
	var he *httpError
	if errors.As(err, &he) && he.details != nil {
		body.Details = he.details
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

// writeData emits a success response wrapped in the data envelope.
func writeData(w http.ResponseWriter, status int, v any) error {
	return writeJSON(w, status, dataEnvelope{Data: v})
}

// writeJSON emits a JSON response with the given status. The body is
// marshalled before the status is written, so a value encoding/json refuses
// (a NaN, say) is a 500 from the caller's error path and never a 200 with
// an error body behind it.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return failf(http.StatusInternalServerError, "encoding response: %v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(append(body, '\n'))
	return err
}
