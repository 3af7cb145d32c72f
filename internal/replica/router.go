package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Primary is the primary's base URL; writes, admin and replication
	// traffic forward there.
	Primary string
	// Replicas are the replica base URLs reads round-robin across.
	Replicas []string
	// HealthInterval is how often backends are health-checked; values ≤ 0
	// mean 2 seconds.
	HealthInterval time.Duration
	// Client is used for health checks; nil means a 5-second-timeout client.
	Client *http.Client
	// Logger receives routing events; nil discards.
	Logger *slog.Logger
}

// backend is one proxied upstream.
type backend struct {
	url     *url.URL
	proxy   *httputil.ReverseProxy
	healthy atomic.Bool
}

// Router fronts a primary and its replicas: writes (and replication/admin
// traffic, which must see the authoritative log) are forwarded to the
// primary; reads round-robin across healthy replicas and fall back to the
// primary when none are. It is a stateless stdlib reverse proxy — the
// routing decision is purely method + path.
type Router struct {
	opt      RouterOptions
	log      *slog.Logger
	httpc    *http.Client
	primary  *backend
	replicas []*backend
	next     atomic.Uint64
}

// NewRouter builds a router over the given backends. URLs must parse.
func NewRouter(opt RouterOptions) (*Router, error) {
	if opt.HealthInterval <= 0 {
		opt.HealthInterval = 2 * time.Second
	}
	log := opt.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	httpc := opt.Client
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Second}
	}
	rt := &Router{opt: opt, log: log, httpc: httpc}
	mk := func(raw string) (*backend, error) {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("replica: router backend %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("replica: router backend %q: need an absolute URL", raw)
		}
		b := &backend{url: u, proxy: httputil.NewSingleHostReverseProxy(u)}
		b.healthy.Store(true) // optimistic until the first probe says otherwise
		b.proxy.ErrorLog = slog.NewLogLogger(log.Handler(), slog.LevelWarn)
		b.proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			b.healthy.Store(false)
			log.Warn("router: upstream error", "backend", u.String(), "err", err)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			json.NewEncoder(w).Encode(map[string]any{
				"error": map[string]any{
					"code":    "bad_gateway",
					"message": "upstream unreachable",
					"details": map[string]any{"backend": u.String()},
				},
			})
		}
		return b, nil
	}
	var err error
	if rt.primary, err = mk(opt.Primary); err != nil {
		return nil, err
	}
	for _, raw := range opt.Replicas {
		b, err := mk(raw)
		if err != nil {
			return nil, err
		}
		rt.replicas = append(rt.replicas, b)
	}
	return rt, nil
}

// Run health-checks the backends until ctx is done.
func (rt *Router) Run(ctx context.Context) {
	tick := time.NewTicker(rt.opt.HealthInterval)
	defer tick.Stop()
	rt.probe(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			rt.probe(ctx)
		}
	}
}

func (rt *Router) probe(ctx context.Context) {
	all := append([]*backend{rt.primary}, rt.replicas...)
	var wg sync.WaitGroup
	for _, b := range all {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url.String()+"/v1/healthz", nil)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			resp, err := rt.httpc.Do(req)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ok := resp.StatusCode == http.StatusOK
			if ok != b.healthy.Load() {
				rt.log.Info("router: backend health changed", "backend", b.url.String(), "healthy", ok)
			}
			b.healthy.Store(ok)
		}(b)
	}
	wg.Wait()
}

// isWrite classifies a request as one that must reach the primary. Reads
// include the POSTed query/batch/reason bodies — they mutate nothing.
func isWrite(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	p := r.URL.Path
	for _, read := range []string{
		"/v1/query",
		"/v1/batch",
		"/v1/reason/",
	} {
		if p == read || (strings.HasSuffix(read, "/") && strings.HasPrefix(p, read)) {
			return false
		}
	}
	return true
}

// mustPrimary routes paths that need the authoritative process even on GET:
// the replication stream, admin, and the debug surface.
func mustPrimary(p string) bool {
	return strings.HasPrefix(p, "/v1/replication/") ||
		strings.HasPrefix(p, "/v1/admin/") ||
		strings.HasPrefix(p, "/debug/")
}

// pickReplica returns the next healthy replica, or nil when none is.
func (rt *Router) pickReplica() *backend {
	n := len(rt.replicas)
	if n == 0 {
		return nil
	}
	start := rt.next.Add(1)
	for i := 0; i < n; i++ {
		b := rt.replicas[(int(start)+i)%n]
		if b.healthy.Load() {
			return b
		}
	}
	return nil
}

// Handler returns the routing handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/router/status", rt.handleStatus)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if isWrite(r) || mustPrimary(r.URL.Path) {
			rt.primary.proxy.ServeHTTP(w, r)
			return
		}
		if b := rt.pickReplica(); b != nil {
			b.proxy.ServeHTTP(w, r)
			return
		}
		// No healthy replica: the primary serves its own reads.
		rt.primary.proxy.ServeHTTP(w, r)
	})
	return mux
}

// handleStatus reports the router's view of its backends.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	type be struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	reps := make([]be, len(rt.replicas))
	healthy := 0
	for i, b := range rt.replicas {
		reps[i] = be{URL: b.url.String(), Healthy: b.healthy.Load()}
		if reps[i].Healthy {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"data": map[string]any{
			"role":             "router",
			"primary":          be{URL: rt.primary.url.String(), Healthy: rt.primary.healthy.Load()},
			"replicas":         reps,
			"healthy_replicas": healthy,
		},
	})
}
