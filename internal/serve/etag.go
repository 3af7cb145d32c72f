package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cardirect/internal/replica"
)

// The read endpoints over store state — /v1/relation, /v1/select
// and /v1/query — are validatable: their responses depend only on the
// request and the relation store's edit generation, so the generation
// doubles as a strong ETag. A repeat reader sends If-None-Match with the
// tag it last saw and, while no edit has landed, gets 304 Not Modified
// without the server evaluating anything.
//
// Replication rides the same counter: replicas adopt the primary's
// generation as records apply, so at equal generation a replica's ETag —
// and body — is byte-identical to the primary's. That makes the tag a
// cross-node freshness token: a reader can demand `Cardirect-Min-Generation:
// N` and a lagging replica answers 503 replica_lagging instead of silently
// serving stale state; replicas additionally stamp `Cardirect-Staleness`
// (known unapplied records) on every validatable read.
//
// The tag is always computed BEFORE the data is read. Under a concurrent
// edit that order can hand out a stale tag with fresher data — which only
// costs the client one extra revalidation; the reverse order could validate
// stale data as current, which would be wrong.

// storeETag renders the current store generation as a strong entity tag.
func (s *Server) storeETag() string {
	return fmt.Sprintf("\"g%d\"", s.tracked().Store().Generation())
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags, "*" matching anything, weak prefixes compared
// weakly (RFC 9110 §8.8.3.2).
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// conditional enforces the freshness contract and stamps the response with
// the generation ETag. It reports done=true when it has already written a
// response (304 Not Modified) — the handler must not produce a body — and
// an error when the reader demanded a minimum generation this node has not
// reached (503 replica_lagging).
func (s *Server) conditional(w http.ResponseWriter, r *http.Request) (done bool, err error) {
	gen := s.tracked().Store().Generation()
	if f := s.opt.Follower; f != nil {
		w.Header().Set(replica.HeaderStaleness, strconv.FormatUint(f.Lag(), 10))
	}
	if min := r.Header.Get(replica.HeaderMinGeneration); min != "" {
		want, perr := strconv.ParseUint(min, 10, 64)
		if perr != nil {
			return false, failf(http.StatusBadRequest, "serve: bad %s header %q", replica.HeaderMinGeneration, min)
		}
		if gen < want {
			details := map[string]any{"generation": gen, "min_generation": want}
			if f := s.opt.Follower; f != nil {
				details["primary"] = f.PrimaryURL()
			}
			return false, failCode(http.StatusServiceUnavailable, "replica_lagging", details,
				"serve: generation %d is behind the requested minimum %d; retry or read the primary", gen, want)
		}
	}
	etag := fmt.Sprintf("\"g%d\"", gen)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		metrics.Add("etag_304s", 1)
		w.WriteHeader(http.StatusNotModified)
		return true, nil
	}
	return false, nil
}
