// Package serve implements the cardirectd HTTP/JSON API: the paper's
// CARDIRECT tool (§4) as a network service over a tracked configuration.
// One config.Tracked — document, core.RelationStore and live R-tree —
// backs every endpoint, so pair-relation reads are one kernel run on
// prepared regions, region edits re-prepare only the touched region, and
// directional selections prune through R-tree window queries.
//
// Each write route decodes its request into a []wal.Record once and hands
// it to one replica.Editor's Apply: the tracked store itself (in memory),
// a persist.Store (write-ahead logged before acknowledgement), or the
// replication primary stacked on either. A bulk ingest is one slice of
// adds, one edit.
//
// Production posture: every handler runs under a per-endpoint expvar
// instrument (request count, error count, latency sum, global inflight
// gauge), request bodies are size-limited, an optional per-request timeout
// turns into context cancellation that the batch engines, the query join
// loop and the selection refinement all observe, and access is logged
// structurally through log/slog. Errors map to HTTP status codes through
// the shared sentinels (core.ErrUnknownRegion → 404, ErrDegenerateRegion →
// 422, config.ErrDuplicateRegion → 409, context deadline → 504).
package serve

import (
	"context"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/persist"
	"cardirect/internal/query"
	"cardirect/internal/replica"
)

// Options configures a Server.
type Options struct {
	// MaxBodyBytes caps request body size; values ≤ 0 mean 1 MiB.
	MaxBodyBytes int64
	// MaxBulkBytes caps the POST /v1/bulk request body, which carries
	// whole worlds and needs more room than ordinary edits; values ≤ 0
	// mean 64 MiB. Oversized streams map to 413 like every other body.
	MaxBulkBytes int64
	// RequestTimeout, when positive, bounds every request's context; work
	// that honors the context (all-pairs sweeps, query joins, selections)
	// aborts with 504 when it expires.
	RequestTimeout time.Duration
	// Logger receives structured access logs; nil means slog.Default().
	Logger *slog.Logger
	// Persist, when set, makes the server durable: region edits are routed
	// through the store (write-ahead logged before acknowledgement) and
	// the /v1/admin/* endpoints operate on it. The store's Tracked() must
	// be the same tr handed to New. Nil serves the in-memory shape and the
	// admin endpoints answer 404.
	Persist *persist.Store
	// SolveWorkers is the parallel consistency solver's default fan width
	// for /v1/reason/check; values ≤ 0 mean the reason package default
	// (max(8, GOMAXPROCS)).
	SolveWorkers int
	// MaxNetwork caps the number of region variables a reasoning request
	// may declare — the consistency search is worst-case exponential, so
	// the daemon refuses oversized networks with 413 instead of melting.
	// Values ≤ 0 mean 64.
	MaxNetwork int
	// Repl, when set, makes this process a replication source: GET
	// /v1/replication/snapshot and /wal serve its retained log. Region
	// edits must be routed THROUGH it (pass it as Editor too, as
	// cardirectd does) for followers to see them.
	Repl *replica.Primary
	// Follower, when set, makes this server a read replica. It supplies the
	// live tracked store of a tailing replica — reads resolve through it so
	// a re-bootstrap (primary epoch change) swaps the world under the server
	// — plus the staleness surface: Cardirect-Staleness response headers
	// and the Cardirect-Min-Generation → 503 replica_lagging contract.
	// Writes answer 421 not_primary with the followed primary's URL in the
	// error details.
	Follower *replica.Replica
	// Editor overrides the mutation surface writes go through. Nil keeps
	// the default (Persist when set, else the tracked store itself);
	// cardirectd passes the replication primary so edits ship to
	// followers.
	Editor replica.Editor
}

// Server serves the cardirectd API over one tracked configuration.
type Server struct {
	tr     *config.Tracked // the tracked handed to New; replicas may swap it
	lastTr atomic.Pointer[config.Tracked]
	edit   replica.Editor
	opt    Options
	log    *slog.Logger
	mux    *http.ServeMux
	engine *query.Engine // plan cache + per-generation query snapshot
}

// tracked resolves the store every request reads: the follower's live
// tracked when this server is a replica (it is swapped wholesale on
// re-bootstrap), the construction-time tracked otherwise. A swap resets the
// query engine — cached plans validate by generation alone, and a fresh store
// restarts its generation sequence, so stale entries could otherwise
// collide with a new store at a coincidentally equal generation (the query
// snapshot is keyed on the tracked pointer too; the reset frees it early).
func (s *Server) tracked() *config.Tracked {
	tr := s.tr
	if f := s.opt.Follower; f != nil {
		tr = f.Tracked()
	}
	if old := s.lastTr.Load(); old != tr {
		if s.lastTr.CompareAndSwap(old, tr) && old != nil {
			s.engine.Reset()
		}
	}
	return tr
}

// metrics is the process-wide expvar surface, published under "cardirectd":
// per-endpoint "<route>.requests" / "<route>.errors" / "<route>.latency_ns"
// counters, a global "inflight" gauge, and a "store" func reporting the
// tracked store's cumulative read Stats (pairs answered, and by which
// kernel stage).
var metrics = expvar.NewMap("cardirectd")

// New builds a server over the tracked configuration. The store behind tr
// should be built with StoreOptions.Pct when percent endpoints are wanted.
func New(tr *config.Tracked, opt Options) *Server {
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 1 << 20
	}
	if opt.MaxBulkBytes <= 0 {
		opt.MaxBulkBytes = 64 << 20
	}
	if opt.MaxNetwork <= 0 {
		opt.MaxNetwork = 64
	}
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	s := &Server{tr: tr, edit: tr, opt: opt, log: opt.Logger, mux: http.NewServeMux(),
		// One engine for the whole server: requests share its plan cache
		// (repeated query texts skip parsing and planning) and its query
		// snapshot; both self-invalidate against the store generation.
		engine: query.NewEngine(256)}
	if opt.Persist != nil {
		s.edit = opt.Persist
	}
	if opt.Editor != nil {
		s.edit = opt.Editor
	}
	s.routes()
	// The expvar namespace is process-global; with several servers (tests)
	// the last one wins, which matches the one-server production shape.
	metrics.Set("store", expvar.Func(func() any {
		st := s.tracked().Store()
		return map[string]any{
			"regions":    st.Len(),
			"generation": st.Generation(),
			"stats":      st.Stats(),
		}
	}))
	metrics.Set("plan_cache_hits", expvar.Func(func() any { return s.engine.Stats().Hits }))
	metrics.Set("plan_cache_misses", expvar.Func(func() any { return s.engine.Stats().Misses }))
	metrics.Set("replans", expvar.Func(func() any { return s.engine.Stats().Replans }))
	metrics.Set("query_snapshot_builds", expvar.Func(func() any { return s.engine.Stats().SnapshotBuilds }))
	metrics.Set("query_snapshot_reuses", expvar.Func(func() any { return s.engine.Stats().SnapshotReuses }))
	if p := opt.Persist; p != nil {
		metrics.Set("persist", expvar.Func(func() any {
			st := p.Status()
			return map[string]any{
				"seq":              st.Seq,
				"wal_records":      st.WAL.Records,
				"wal_bytes":        st.WAL.Bytes,
				"wal_fsyncs":       st.WAL.Fsyncs,
				"recovery_ns":      st.RecoveryNs,
				"replayed_records": st.ReplayedRecords,
				"skipped_records":  st.SkippedRecords,
			}
		}))
	}
	return s
}

// Handler returns the root handler: the API routes plus /debug/vars
// (expvar) and /debug/pprof.
func (s *Server) Handler() http.Handler { return s.mux }

// Route describes one mounted API route: the /v1 path and the metrics/log
// name. The one unversioned path is the bare /healthz probe, which shares
// the handler and name of /v1/healthz because operations probes
// conventionally live there.
type Route struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Name   string `json:"name"`
}

// routeTable is the single source of truth for the API surface; routes()
// mounts it and Routes() exposes it (the API.md inventory test walks it).
func (s *Server) routeTable() []struct {
	Route
	limit int64
	h     handlerFunc
} {
	type entry = struct {
		Route
		limit int64
		h     handlerFunc
	}
	rt := func(method, path, name string, limit int64, h handlerFunc) entry {
		return entry{Route: Route{Method: method, Path: path, Name: name}, limit: limit, h: h}
	}
	return []entry{
		rt("GET", "/v1/healthz", "healthz", 0, s.handleHealthz),
		rt("GET", "/healthz", "healthz", 0, s.handleHealthz),
		rt("GET", "/v1/regions", "regions.list", 0, s.handleRegionsList),
		rt("POST", "/v1/regions", "regions.add", 0, s.handleRegionAdd),
		rt("GET", "/v1/regions/{id}", "regions.get", 0, s.handleRegionGet),
		rt("PUT", "/v1/regions/{id}", "regions.set", 0, s.handleRegionSet),
		rt("POST", "/v1/regions/{id}/rename", "regions.rename", 0, s.handleRegionRename),
		rt("DELETE", "/v1/regions/{id}", "regions.delete", 0, s.handleRegionDelete),
		rt("GET", "/v1/relation", "relation", 0, s.handleRelation),
		rt("GET", "/v1/relations", "relations", 0, s.handleRelations),
		rt("POST", "/v1/bulk", "bulk", s.opt.MaxBulkBytes, s.handleBulk),
		rt("GET", "/v1/select", "select", 0, s.handleSelect),
		rt("POST", "/v1/query", "query", 0, s.handleQuery),
		rt("GET", "/v1/stats", "stats", 0, s.handleStats),
		rt("POST", "/v1/admin/snapshot", "admin.snapshot", 0, s.handleAdminSnapshot),
		rt("GET", "/v1/admin/status", "admin.status", 0, s.handleAdminStatus),
		rt("POST", "/v1/reason/check", "reason.check", 0, s.handleReasonCheck),
		rt("POST", "/v1/reason/entail", "reason.entail", 0, s.handleReasonEntail),
		rt("POST", "/v1/reason/compose", "reason.compose", 0, s.handleReasonCompose),
		rt("GET", "/v1/replication/snapshot", "replication.snapshot", 0, s.handleReplSnapshot),
		rt("GET", "/v1/replication/wal", "replication.wal", 0, s.handleReplWAL),
		rt("GET", "/v1/replication/status", "replication.status", 0, s.handleReplStatus),
	}
}

// writeRoutes names the routes that mutate the world. A replica refuses
// them with 421 not_primary — followers apply edits only through the
// replication stream, never from clients.
var writeRoutes = map[string]bool{
	"regions.add":    true,
	"regions.set":    true,
	"regions.rename": true,
	"regions.delete": true,
	"bulk":           true,
	"admin.snapshot": true,
}

// gateWrites rejects mutations on replicas, pointing the client at the
// primary.
func (s *Server) gateWrites(h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		if f := s.opt.Follower; f != nil {
			return failCode(http.StatusMisdirectedRequest, "not_primary", map[string]any{"primary": f.PrimaryURL()},
				"serve: this node is a read replica; send writes to the primary")
		}
		return h(w, r)
	}
}

func (s *Server) routes() {
	for _, e := range s.routeTable() {
		limit := e.limit
		if limit <= 0 {
			limit = s.opt.MaxBodyBytes
		}
		h := e.h
		if writeRoutes[e.Name] {
			h = s.gateWrites(h)
		}
		s.handleLimit(e.Method+" "+e.Path, e.Name, limit, h)
	}
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handlerFunc is the internal handler shape: returning an error delegates
// the status mapping and JSON error body to the instrument wrapper.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// statusWriter records the status code for metrics and access logs, plus
// one attribute a handler may add to its access line (slog handlers drop
// the zero Attr).
type statusWriter struct {
	http.ResponseWriter
	status int
	extra  slog.Attr
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handleLimit mounts h at pattern wrapped in the shared instrument:
// inflight gauge, per-route counters and latency, a per-route body-size cap
// (the bulk ingest route carries whole worlds and gets its own limit),
// request timeout, error mapping and the structured access log.
func (s *Server) handleLimit(pattern, name string, bodyLimit int64, h handlerFunc) {
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		metrics.Add("inflight", 1)
		defer metrics.Add("inflight", -1)
		metrics.Add(name+".requests", 1)
		if s.opt.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, bodyLimit)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if err := h(sw, r); err != nil {
			metrics.Add(name+".errors", 1)
			writeError(sw, err)
		}
		elapsed := time.Since(start)
		metrics.Add(name+".latency_ns", elapsed.Nanoseconds())
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("route", name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
			sw.extra,
		)
	}))
}
