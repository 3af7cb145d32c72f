package replica

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/textproto"
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

const (
	// maxIdleConns bounds the idle upstream connections a backend keeps;
	// a connection released beyond it is closed.
	maxIdleConns = 32
	// copyBufSize is the pooled response-body buffer.
	copyBufSize = 16 << 10
	// dialTimeout bounds one upstream connect.
	dialTimeout = 5 * time.Second
	// earlyAnswerWait is how long a forward whose request could not be
	// sent in full still waits for an answer: an upstream that turns an
	// oversized body away replies and closes before the body is through.
	earlyAnswerWait = time.Second
)

var copyBufs = sync.Pool{New: func() any { b := make([]byte, copyBufSize); return &b }}

// longAgo is a deadline in the past: setting it fails pending and future
// I/O on a connection at once.
var longAgo = time.Unix(1, 0)

// hopHeaders are the hop-by-hop headers (RFC 9110 §7.6.1, plus the
// de-facto Proxy-Connection) removed in both directions, next to whatever
// the message's own Connection header names.
var hopHeaders = [...]string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func removeHopHeaders(h http.Header) {
	for _, f := range h["Connection"] {
		for _, name := range strings.Split(f, ",") {
			if name = textproto.TrimString(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopHeaders {
		delete(h, name)
	}
}

// upstream is one persistent connection to a backend.
type upstream struct {
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool // it has carried a request before: the peer may have closed it since
}

// backend is one upstream node: its health flag, its counters and a LIFO
// pool of idle persistent connections. Its ServeHTTP forwards a request on
// the calling goroutine — no transport goroutines, no per-request buffers —
// and leaves every byte of HTTP parsing and serialising to net/http
// (Request.Write out, ReadResponse back).
type backend struct {
	url     *url.URL
	addr    string // host:port to dial
	log     *slog.Logger
	healthy atomic.Bool

	requests, errors, replays, dials atomic.Uint64

	mu     sync.Mutex
	idle   []*upstream // most recently used last
	closed bool
}

func newBackend(raw string, log *slog.Logger) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("replica: router backend %q: %w", raw, err)
	}
	if u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("replica: router backend %q: need an absolute http(s) URL", raw)
	}
	b := &backend{url: u, addr: u.Host, log: log}
	if u.Port() == "" {
		port := "80"
		if u.Scheme == "https" {
			port = "443"
		}
		b.addr = net.JoinHostPort(u.Hostname(), port)
	}
	b.healthy.Store(true) // optimistic until the first probe says otherwise
	return b, nil
}

// acquire returns the most recently used idle connection, or dials.
func (b *backend) acquire(ctx context.Context) (*upstream, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		uc := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return uc, nil
	}
	b.mu.Unlock()
	b.dials.Add(1)
	d := &net.Dialer{Timeout: dialTimeout}
	var c net.Conn
	var err error
	if b.url.Scheme == "https" {
		c, err = (&tls.Dialer{NetDialer: d}).DialContext(ctx, "tcp", b.addr)
	} else {
		c, err = d.DialContext(ctx, "tcp", b.addr)
	}
	if err != nil {
		return nil, err
	}
	return &upstream{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// release parks a connection whose exchange completed cleanly.
func (b *backend) release(uc *upstream) {
	uc.reused = true
	b.mu.Lock()
	if b.closed || len(b.idle) >= maxIdleConns {
		b.mu.Unlock()
		uc.c.Close()
		return
	}
	b.idle = append(b.idle, uc)
	b.mu.Unlock()
}

// dropIdle closes every parked connection.
func (b *backend) dropIdle() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	for _, uc := range idle {
		uc.c.Close()
	}
}

func (b *backend) idleConns() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.idle)
}

// failed records an upstream failure and reports whether it was one: a
// request whose own context ended — the client left, or its deadline
// passed — says nothing about the backend. A real failure takes the node
// out of rotation until the next probe and drops its pool, whose other
// connections most likely died with this one.
func (b *backend) failed(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	b.errors.Add(1)
	b.healthy.Store(false)
	b.dropIdle()
	b.log.Warn("router: upstream error", "backend", b.url.String(), "err", err)
	return true
}

// refuse answers in the API's error envelope, in the router's own name.
func (b *backend) refuse(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{
			"code":    code,
			"message": message,
			"details": map[string]any{"backend": b.url.String()},
		},
	})
}

// badGateway answers an upstream failure that struck before any of the
// response went out — unless it was the client's own doing (see failed).
func (b *backend) badGateway(ctx context.Context, w http.ResponseWriter, err error) {
	if b.failed(ctx, err) {
		b.refuse(w, http.StatusBadGateway, "bad_gateway", "upstream unreachable")
	}
}

// inboundBody remembers a failed read of the client's body, so that a
// client that breaks off or garbles its upload is not held against the
// backend.
type inboundBody struct {
	io.ReadCloser
	err error
}

func (ib *inboundBody) Read(p []byte) (int, error) {
	n, err := ib.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		ib.err = err
	}
	return n, err
}

// outbound builds the request sent upstream: a shallow one around the
// inbound header map (hop-by-hop fields removed, X-Forwarded-For extended)
// and the inbound body. The Host line stays the client's.
func (b *backend) outbound(r *http.Request) (*http.Request, *inboundBody) {
	u := *r.URL
	u.Scheme, u.Host = b.url.Scheme, b.url.Host
	if prefix := strings.TrimSuffix(b.url.Path, "/"); prefix != "" {
		u.Path, u.RawPath = prefix+r.URL.Path, strings.TrimSuffix(b.url.EscapedPath(), "/")+r.URL.EscapedPath()
	}
	h := r.Header
	removeHopHeaders(h)
	if ip, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if prior := h["X-Forwarded-For"]; len(prior) > 0 {
			ip = strings.Join(prior, ", ") + ", " + ip
		}
		h["X-Forwarded-For"] = []string{ip}
	}
	if _, ok := h["User-Agent"]; !ok {
		h["User-Agent"] = []string{""} // keep Request.Write from inventing one
	}
	out := &http.Request{
		Method: r.Method, URL: &u, Host: r.Host, Header: h,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if r.Body == nil || r.Body == http.NoBody {
		return out, nil
	}
	body := &inboundBody{ReadCloser: r.Body}
	out.Body, out.ContentLength = body, r.ContentLength
	return out, body
}

// ServeHTTP forwards r to the backend and relays the answer. A request is
// sent a second time at most once, and only when it carries no body and
// failed on a reused connection before any response byte arrived — the
// peer closed an idle connection under us; writes are never replayed.
func (b *backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.requests.Add(1)
	ctx := r.Context()
	out, body := b.outbound(r)
	for replayed := false; ; replayed = true {
		uc, err := b.acquire(ctx)
		if err != nil {
			b.badGateway(ctx, w, err)
			return
		}
		if !b.exchange(ctx, w, out, body, uc, !replayed) {
			return
		}
		// One stale connection means the peer went away: the rest of the
		// pool is no better, so the replay dials.
		b.replays.Add(1)
		b.dropIdle()
	}
}

// exchange runs one request/response on uc and reports whether the request
// must be replayed on another connection. uc goes back to the pool only
// when the response body was relayed to its end, the upstream did not ask
// to close and the client is still there.
func (b *backend) exchange(ctx context.Context, w http.ResponseWriter, out *http.Request, body *inboundBody, uc *upstream, mayReplay bool) (replay bool) {
	// A departing client (or the server shutting its connections) ends
	// ctx; the deadline then fails whatever upstream I/O is in flight.
	stop := context.AfterFunc(ctx, func() { uc.c.SetDeadline(longAgo) })
	reusable := false
	defer func() {
		if stop() && reusable {
			b.release(uc)
		} else {
			uc.c.Close()
		}
	}()

	err := out.Write(uc.bw)
	if err == nil {
		err = uc.bw.Flush()
	}
	if body != nil && body.err != nil {
		if ctx.Err() == nil {
			b.refuse(w, http.StatusBadRequest, "bad_request", "reading request body: "+body.err.Error())
		}
		return false
	}
	sent := err == nil
	if !sent {
		if ctx.Err() != nil {
			return false
		}
		uc.c.SetReadDeadline(time.Now().Add(earlyAnswerWait))
	}
	if _, perr := uc.br.Peek(1); perr != nil {
		// No response byte arrived.
		if uc.reused && mayReplay && body == nil && ctx.Err() == nil {
			return true
		}
		if sent {
			err = perr
		}
		b.badGateway(ctx, w, err)
		return false
	}
	resp, err := http.ReadResponse(uc.br, out)
	for err == nil && resp.StatusCode < 200 {
		resp, err = http.ReadResponse(uc.br, out) // 1xx is between the upstream and us
	}
	if err != nil {
		b.badGateway(ctx, w, err)
		return false
	}

	removeHopHeaders(resp.Header)
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	bufp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bufp)
	for {
		n, rerr := resp.Body.Read(*bufp)
		if n > 0 {
			if _, werr := w.Write((*bufp)[:n]); werr != nil {
				return false // the client is gone
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// The head is out: all that is left is to make sure the client
			// cannot mistake the stump for the whole body.
			b.failed(ctx, rerr)
			panic(http.ErrAbortHandler)
		}
	}
	reusable = sent && !resp.Close && uc.br.Buffered() == 0 && ctx.Err() == nil
	return false
}

// Router fronts a primary and its replicas: writes (and replication/admin
// traffic, which must see the authoritative log) are forwarded to the
// primary; reads round-robin across healthy replicas and fall back to the
// primary when none are. The routing decision is purely method + path, and
// the only state is each backend's pool of upstream connections.
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
	var err error
	if rt.primary, err = newBackend(opt.Primary, log); err != nil {
		return nil, err
	}
	for _, raw := range opt.Replicas {
		b, err := newBackend(raw, log)
		if err != nil {
			return nil, err
		}
		rt.replicas = append(rt.replicas, b)
	}
	return rt, nil
}

func (rt *Router) backends() []*backend {
	return append([]*backend{rt.primary}, rt.replicas...)
}

// Close drops every backend's idle connections and stops pooling: a
// connection still carrying a request is closed when that request ends.
func (rt *Router) Close() {
	for _, b := range rt.backends() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		b.dropIdle()
	}
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
	var wg sync.WaitGroup
	for _, b := range rt.backends() {
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
// include the POSTed query/reason bodies — they mutate nothing.
func isWrite(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	p := r.URL.Path
	for _, read := range []string{
		"/v1/query",
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
			rt.primary.ServeHTTP(w, r)
			return
		}
		if b := rt.pickReplica(); b != nil {
			b.ServeHTTP(w, r)
			return
		}
		// No healthy replica: the primary serves its own reads.
		rt.primary.ServeHTTP(w, r)
	})
	return mux
}

// backendStatus is one backend in GET /v1/router/status: its health and
// what its forwarder has done so far — dials staying flat while requests
// grow is pooling at work.
type backendStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Replays   uint64 `json:"replays"`
	Dials     uint64 `json:"dials"`
	IdleConns int    `json:"idle_conns"`
}

func (b *backend) status() backendStatus {
	return backendStatus{
		URL: b.url.String(), Healthy: b.healthy.Load(),
		Requests: b.requests.Load(), Errors: b.errors.Load(),
		Replays: b.replays.Load(), Dials: b.dials.Load(),
		IdleConns: b.idleConns(),
	}
}

// handleStatus reports the router's view of its backends.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	reps := make([]backendStatus, len(rt.replicas))
	healthy := 0
	for i, b := range rt.replicas {
		reps[i] = b.status()
		if reps[i].Healthy {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"data": map[string]any{
			"role":             "router",
			"primary":          rt.primary.status(),
			"replicas":         reps,
			"healthy_replicas": healthy,
		},
	})
}
