package replica_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardirect/internal/replica"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// routerFixture is a router behind a front server. Its health loop runs
// only where a test starts it.
type routerFixture struct {
	rtr   *replica.Router
	front *httptest.Server
}

func newRouterFixture(t *testing.T, primary string, replicas ...string) *routerFixture {
	t.Helper()
	rtr, err := replica.NewRouter(replica.RouterOptions{
		Primary:        primary,
		Replicas:       replicas,
		HealthInterval: 20 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &routerFixture{rtr: rtr, front: httptest.NewServer(rtr.Handler())}
	t.Cleanup(func() { f.front.Close(); rtr.Close() })
	return f
}

// backendStatus mirrors one backend of GET /v1/router/status.
type backendStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Replays   uint64 `json:"replays"`
	Dials     uint64 `json:"dials"`
	IdleConns int    `json:"idle_conns"`
}

type routerStatus struct {
	Primary         backendStatus   `json:"primary"`
	Replicas        []backendStatus `json:"replicas"`
	HealthyReplicas int             `json:"healthy_replicas"`
}

func (f *routerFixture) status(t *testing.T) routerStatus {
	t.Helper()
	_, _, body := get(t, f.front.URL, "/v1/router/status", nil)
	var st struct {
		Data routerStatus `json:"data"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("router status: %v in %s", err, body)
	}
	return st.Data
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestRouterClientCancelKeepsBackendHealthy: a client that gives up on a
// slow request — here the replication long poll — takes its own upstream
// connection down with it and nothing else: the backend stays in rotation
// and no upstream error is counted.
func TestRouterClientCancelKeepsBackendHealthy(t *testing.T) {
	pollEnded := make(chan struct{}, 1)
	p := newWrappedPrimaryFixture(t, false, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/replication/wal" {
				pollEnded <- struct{}{}
			}
		})
	})
	f := newRouterFixture(t, p.ts.URL)

	impatient := &http.Client{Timeout: 100 * time.Millisecond}
	defer impatient.CloseIdleConnections()
	start := time.Now()
	if resp, err := impatient.Get(f.front.URL + "/v1/replication/wal?from=1&wait=5s"); err == nil {
		resp.Body.Close()
		t.Fatalf("the long poll answered %d before the client's timeout", resp.StatusCode)
	}
	// The primary's handler ends because the router closed the upstream
	// connection, not because the poll ran its five seconds.
	select {
	case <-pollEnded:
	case <-time.After(4 * time.Second):
		t.Fatal("the upstream long poll outlived the client that asked for it")
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("upstream request ended after %v: by the poll's own timeout, not by the cancellation", took)
	}
	// The forward on the router side winds up a moment after the upstream's.
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if st := f.status(t).Primary; !st.Healthy || st.Errors != 0 {
			t.Fatalf("a client's timeout was held against the backend: %+v", st)
		}
	}
}

// hopByHop lists the fields of h a proxy must not pass on: the fixed set,
// and whatever h's own Connection field names.
func hopByHop(h http.Header) []string {
	names := []string{
		"Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Te", "Trailer",
		"Proxy-Authenticate", "Proxy-Authorization", "Proxy-Connection",
	}
	for _, v := range h.Values("Connection") {
		for _, name := range strings.Split(v, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}
	return names
}

// seenRequest is what a backend saw of the last request that reached it.
type seenRequest struct {
	mu      sync.Mutex
	header  http.Header
	trailer http.Header
}

func (s *seenRequest) last() (http.Header, http.Header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.header, s.trailer
}

// hopAdding records each request and decorates each response with
// hop-by-hop fields, as a backend behind a proxy is entitled to.
func hopAdding(seen *seenRequest) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "X-Resp-Hop")
			w.Header().Set("X-Resp-Hop", "1")
			w.Header().Set("Keep-Alive", "timeout=7")
			w.Header().Set("Proxy-Authenticate", "Basic realm=hop")
			w.Header().Set("Upgrade", "h2c")
			w.Header().Set("X-End-To-End", "kept")
			h.ServeHTTP(w, r)
			seen.mu.Lock()
			seen.header, seen.trailer = r.Header.Clone(), r.Trailer.Clone()
			seen.mu.Unlock()
		})
	}
}

// endToEnd strips what is allowed to differ between a direct answer and a
// forwarded one: the hop-by-hop fields and the clock.
func endToEnd(h http.Header) http.Header {
	out := h.Clone()
	for _, name := range hopByHop(h) {
		out.Del(name)
	}
	out.Del("Date")
	return out
}

// bulkLines is an NDJSON upload of n disjoint boxes.
func bulkLines(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		x, y := 1000+float64(i%20)*30, 1000+float64(i/20)*30
		fmt.Fprintf(&buf, `{"id":"bulk%03d","wkt":"POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))"}`+"\n",
			i, x, y, x+10, y, x+10, y+10, x, y+10, x, y)
	}
	return buf.Bytes()
}

// TestRouterForwardDifferential: whatever a client asks, the answer through
// the router — status, body, every end-to-end header — is the answer the
// backend gives directly; hop-by-hop fields cross in neither direction and
// the backend learns who asked. Two identical primaries take the same
// request sequence, one directly and one through a router.
func TestRouterForwardDifferential(t *testing.T) {
	var seenDirect, seenRouted seenRequest
	direct := newWrappedPrimaryFixture(t, false, hopAdding(&seenDirect))
	routed := newWrappedPrimaryFixture(t, false, hopAdding(&seenRouted))
	f := newRouterFixture(t, routed.ts.URL)

	const box = `"wkt":"POLYGON ((800 800, 810 800, 810 810, 800 810, 800 800))"`
	etag := ""
	type reqCase struct {
		name   string
		method string
		path   string
		header map[string]string
		body   func() io.Reader // nil: no body
		status int
		code   string // error envelope code, when status is an error
		timed  bool   // the body reports how long the backend took
	}
	cases := []reqCase{
		{name: "GET 200", method: "GET", path: "/v1/relation?primary=attica&reference=peloponnesos", status: 200},
		{name: "GET 404", method: "GET", path: "/v1/regions/atlantis", status: 404, code: "unknown_region"},
		{name: "GET 304", method: "GET", path: "/v1/relations", header: map[string]string{"If-None-Match": "etag"}, status: 304},
		{name: "HEAD", method: "HEAD", path: "/v1/relations", status: 200},
		{name: "POST query", method: "POST", path: "/v1/query", status: 200,
			body: func() io.Reader { return strings.NewReader(`{"q":"q(x, y) :- x N y"}`) }},
		{name: "POST add", method: "POST", path: "/v1/regions", status: 201,
			body: func() io.Reader { return strings.NewReader(`{"id":"newbox",` + box + `}`) }},
		{name: "PUT body", method: "PUT", path: "/v1/regions/newbox", status: 200,
			body: func() io.Reader {
				return strings.NewReader(`{"wkt":"POLYGON ((820 820, 840 820, 840 840, 820 840, 820 820))"}`)
			}},
		{name: "DELETE 204", method: "DELETE", path: "/v1/regions/newbox", status: 204},
		{name: "body over the limit", method: "PUT", path: "/v1/regions/attica", status: 413,
			body: func() io.Reader {
				return strings.NewReader(`{"pad":"` + strings.Repeat("x", 1<<20+4096) + `",` + box + `}`)
			}},
		{name: "chunked bulk upload", method: "POST", path: "/v1/bulk", status: 200, timed: true,
			header: map[string]string{"Content-Type": "application/x-ndjson"},
			// Hiding the reader's type leaves the length unknown: chunked.
			body: func() io.Reader { return struct{ io.Reader }{bytes.NewReader(bulkLines(200))} }},
		{name: "multi-MB response", method: "GET", path: "/v1/relations", status: 200},
		{name: "min generation", method: "GET", path: "/v1/relations", status: 503, code: "replica_lagging",
			header: map[string]string{replica.HeaderMinGeneration: "999999"}},
	}
	do := func(c reqCase, base string) (int, http.Header, []byte) {
		var body io.Reader
		if c.body != nil {
			body = c.body()
		}
		req, err := http.NewRequest(c.method, base+c.path, body)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range c.header {
			if v == "etag" {
				v = etag
			}
			req.Header.Set(k, v)
		}
		// Every request carries hop-by-hop baggage and a forwarding history.
		req.Header.Set("Connection", "X-Req-Hop")
		req.Header.Set("X-Req-Hop", "1")
		req.Header.Set("Keep-Alive", "timeout=9")
		req.Header.Set("Proxy-Authorization", "Basic aG9w")
		req.Header.Set("Te", "trailers")
		req.Header.Set("Upgrade", "websocket")
		req.Header.Set("X-Forwarded-For", "203.0.113.9")
		req.Header.Set("X-Custom", "kept")
		if c.name == "chunked bulk upload" {
			req.Trailer = http.Header{"X-Upload-Trailer": {"dropped"}}
		}
		return fetch(t, req)
	}
	_, h, _ := get(t, direct.ts.URL, "/v1/relations", nil)
	if etag = h.Get("ETag"); etag == "" {
		t.Fatal("no ETag on /v1/relations")
	}
	for _, c := range cases {
		ds, dh, db := do(c, direct.ts.URL)
		rs, rh, rb := do(c, f.front.URL)
		if ds != c.status {
			t.Fatalf("%s: the backend itself answers %d, the case expects %d: %s", c.name, ds, c.status, db)
		}
		if c.code != "" {
			if code, _ := errorCode(t, db); code != c.code {
				t.Fatalf("%s: direct error code %q, want %q", c.name, code, c.code)
			}
		}
		if c.timed {
			took := regexp.MustCompile(`"duration_ns":\d+`)
			db, rb = took.ReplaceAll(db, nil), took.ReplaceAll(rb, nil)
			dh.Del("Content-Length")
			rh.Del("Content-Length")
		}
		if rs != ds {
			t.Fatalf("%s: %d through the router, %d direct: %s", c.name, rs, ds, rb)
		}
		if !bytes.Equal(rb, db) {
			t.Fatalf("%s: bodies differ: %d bytes through the router, %d direct\n router %.200s\n direct %.200s", c.name, len(rb), len(db), rb, db)
		}
		if got, want := endToEnd(rh), endToEnd(dh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: end-to-end headers differ:\n router %v\n direct %v", c.name, got, want)
		}
		if rh.Get("X-End-To-End") != "kept" {
			t.Fatalf("%s: an end-to-end response header was lost: %v", c.name, rh)
		}
		for _, name := range hopByHop(dh) {
			if v := rh.Values(name); len(v) > 0 {
				t.Fatalf("%s: hop-by-hop response header %s: %v came through the router", c.name, name, v)
			}
		}
		if c.name == "multi-MB response" && len(rb) < 2<<20 {
			t.Fatalf("the large response is only %d bytes: it fits buffers it is meant to exceed", len(rb))
		}
		if c.status == 413 {
			continue // turned away before it was read: nothing recorded worth comparing
		}
		sh, st := seenRouted.last()
		seenDirectHeader, _ := seenDirect.last()
		for _, name := range hopByHop(seenDirectHeader) {
			if v := sh.Values(name); len(v) > 0 {
				t.Fatalf("%s: hop-by-hop request header %s: %v reached the backend", c.name, name, v)
			}
		}
		if len(st) > 0 {
			t.Fatalf("%s: request trailers reached the backend: %v", c.name, st)
		}
		if got := sh.Get("X-Forwarded-For"); got != "203.0.113.9, 127.0.0.1" {
			t.Fatalf("%s: backend saw X-Forwarded-For %q", c.name, got)
		}
		if sh.Get("X-Custom") != "kept" {
			t.Fatalf("%s: an end-to-end request header was lost: %v", c.name, sh)
		}
		if h := seenDirectHeader; h.Get("X-Req-Hop") != "1" || h.Get("Keep-Alive") == "" || h.Get("X-Forwarded-For") != "203.0.113.9" {
			t.Fatalf("%s: the direct control did not carry the baggage: %v", c.name, h)
		}
	}
	// All of that over a handful of pooled connections, none replayed.
	if st := f.status(t).Primary; st.Errors != 0 || st.Replays != 0 || st.Dials > 3 || st.IdleConns == 0 {
		t.Fatalf("forwarder counters after the table: %+v", st)
	}
}

// countingBackend is a plain HTTP backend that counts what reaches it.
type countingBackend struct {
	ts     *httptest.Server
	reads  atomic.Int64
	writes atomic.Int64
}

func newCountingBackend(t *testing.T) *countingBackend {
	b := &countingBackend{}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			b.reads.Add(1)
		} else {
			io.Copy(io.Discard, r.Body)
			b.writes.Add(1)
		}
		io.WriteString(w, `{"data":"ok"}`)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

// TestRouterStaleConnection: the backend closes a connection the router had
// parked. A read is sent again, once, and succeeds; a write is not — it
// answers 502 and never reaches the backend a second time.
func TestRouterStaleConnection(t *testing.T) {
	b := newCountingBackend(t)
	f := newRouterFixture(t, b.ts.URL)

	if status, _, body := get(t, f.front.URL, "/v1/x", nil); status != 200 {
		t.Fatalf("first read: %d: %s", status, body)
	}
	if st := f.status(t).Primary; st.IdleConns != 1 || st.Dials != 1 {
		t.Fatalf("after one request the pool should hold its connection: %+v", st)
	}
	b.ts.CloseClientConnections()
	if status, _, body := get(t, f.front.URL, "/v1/x", nil); status != 200 {
		t.Fatalf("read on a stale connection: %d: %s", status, body)
	}
	if st := f.status(t).Primary; st.Replays != 1 || st.Errors != 0 || !st.Healthy || st.Dials != 2 {
		t.Fatalf("the read should have been replayed once on a fresh connection: %+v", st)
	}
	if n := b.reads.Load(); n != 2 {
		t.Fatalf("backend served %d reads, want 2", n)
	}

	b.ts.CloseClientConnections()
	status, _, body := post(t, f.front.URL, "/v1/x", []byte(`{"edit":1}`))
	if status != http.StatusBadGateway {
		t.Fatalf("write on a stale connection: %d: %s", status, body)
	}
	if code, details := errorCode(t, body); code != "bad_gateway" || details["backend"] != b.ts.URL {
		t.Fatalf("502 envelope: code %q details %v", code, details)
	}
	if n := b.writes.Load(); n != 0 {
		t.Fatalf("the failed write reached the backend %d times", n)
	}
	if st := f.status(t).Primary; st.Replays != 1 || st.Errors != 1 || st.Healthy {
		t.Fatalf("the write must fail without a replay and mark the backend: %+v", st)
	}
	// The failure dropped the pool, so the next write dials and lands, once.
	if status, _, body := post(t, f.front.URL, "/v1/x", []byte(`{"edit":2}`)); status != 200 {
		t.Fatalf("write after the failure: %d: %s", status, body)
	}
	if n := b.writes.Load(); n != 1 {
		t.Fatalf("backend applied %d writes, want 1", n)
	}
}

// TestRouterOddUpstreams scripts what the upstream puts on the wire. When
// its connection breaks after the response head went out, the client must
// see a broken response — not a short body that ends as if it were whole;
// interim 1xx responses stay between the upstream and the router; and
// something that is not HTTP is a 502.
func TestRouterOddUpstreams(t *testing.T) {
	script := map[string]string{
		"/chunked": "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"data\":[1,2,3,4\r\n",
		"/sized":   "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"data\":[1,2,3,4",
		"/hints":   "HTTP/1.1 103 Early Hints\r\nLink: </style.css>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
		"/smtp":    "220 mail.example ESMTP ready\r\n",
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				req, err := http.ReadRequest(bufio.NewReader(c))
				if err != nil {
					return
				}
				io.WriteString(c, script[req.URL.Path])
			}(c)
		}
	}()
	f := newRouterFixture(t, "http://"+ln.Addr().String())
	for _, path := range []string{"/chunked", "/sized"} {
		resp, err := http.Get(f.front.URL + path)
		if err != nil {
			continue // aborted before the head arrived: broken enough
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("%s: a truncated upstream body reached the client as a complete %d response: %q", path, resp.StatusCode, body)
		}
	}
	if st := f.status(t).Primary; st.Errors != 2 || st.IdleConns != 0 {
		t.Fatalf("both broken responses should count and neither connection be kept: %+v", st)
	}
	status, header, body := get(t, f.front.URL, "/hints", nil)
	if status != 200 || string(body) != "{}" || header.Get("Link") != "" {
		t.Fatalf("a response behind an interim 103: %d %q, Link %q", status, body, header.Get("Link"))
	}
	status, _, body = get(t, f.front.URL, "/smtp", nil)
	if code, _ := errorCode(t, body); status != http.StatusBadGateway || code != "bad_gateway" {
		t.Fatalf("an upstream that does not speak HTTP: %d: %s", status, body)
	}
}

// rawExchange sends raw bytes to addr and returns the response's status
// line's code and its body.
func rawExchange(t *testing.T, addr, request string) (int, []byte) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, request); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestRouterClientFaultsAreNotTheBackends: an upload the client garbles is
// answered 400 in the router's name and not held against the backend; an
// upload the backend turns away before reading it through still delivers
// the backend's answer, not a 502.
func TestRouterClientFaultsAreNotTheBackends(t *testing.T) {
	b := newCountingBackend(t)
	f := newRouterFixture(t, b.ts.URL)
	status, body := rawExchange(t, f.front.Listener.Addr().String(),
		"POST /v1/x HTTP/1.1\r\nHost: router\r\nTransfer-Encoding: chunked\r\n\r\nnot-hex\r\n")
	if code, _ := errorCode(t, body); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("garbled chunked upload: %d: %s", status, body)
	}
	if st := f.status(t).Primary; !st.Healthy || st.Errors != 0 || st.IdleConns != 0 {
		t.Fatalf("a client's garbled upload was held against the backend (or its half-used connection kept): %+v", st)
	}

	// A backend that answers 413 on the request head alone and hangs up
	// the way net/http does: half-close, linger, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				io.WriteString(c, "HTTP/1.1 413 Request Entity Too Large\r\nContent-Type: application/json\r\nContent-Length: 28\r\nConnection: close\r\n\r\n{\"error\":{\"code\":\"too_big\"}}")
				c.(*net.TCPConn).CloseWrite()
				time.Sleep(200 * time.Millisecond)
			}(c)
		}
	}()
	early := newRouterFixture(t, "http://"+ln.Addr().String())
	// 64 MiB of zeros, streamed: far more than the sockets between the
	// router and the backend can swallow, so the forward's write must fail.
	req, err := http.NewRequest("POST", early.front.URL+"/v1/bulk", io.LimitReader(zeros{}, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	status, _, body = fetch(t, req)
	if code, _ := errorCode(t, body); status != http.StatusRequestEntityTooLarge || code != "too_big" {
		t.Fatalf("upload turned away early: %d: %s", status, body)
	}
	if st := early.status(t).Primary; st.Errors != 0 || st.IdleConns != 0 {
		t.Fatalf("an early answer is an answer, and its connection is spent: %+v", st)
	}
}

// zeros reads as zero bytes, without end.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestRouterConcurrentClients: 64 clients mixing reads and writes (under
// -race in `make check`) all get answers, the pool stays within its bound,
// and closing the router leaves no goroutine behind.
func TestRouterConcurrentClients(t *testing.T) {
	p := newPrimaryFixture(t, false)
	before := runtime.NumGoroutine()

	rtr, err := replica.NewRouter(replica.RouterOptions{Primary: p.ts.URL, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rtr.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	client := &http.Client{Transport: transport}

	const clients, rounds = 64, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("conc%02d", c)
			x := 2000 + float64(c)*30
			for i := 0; i < rounds; i++ {
				var req *http.Request
				want := 200
				switch {
				case i == 0:
					want = 201
					req, _ = http.NewRequest("POST", front.URL+"/v1/regions", strings.NewReader(fmt.Sprintf(
						`{"id":%q,"wkt":"POLYGON ((%g 0, %g 0, %g 10, %g 10, %g 0))"}`, id, x, x+10, x+10, x, x)))
				case i%4 == 0:
					req, _ = http.NewRequest("PUT", front.URL+"/v1/regions/"+id, strings.NewReader(fmt.Sprintf(
						`{"wkt":"POLYGON ((%g %d, %g %d, %g %d, %g %d, %g %d))"}`, x, i, x+10, i, x+10, i+10, x, i+10, x, i)))
				default:
					req, _ = http.NewRequest("GET", front.URL+"/v1/relation?primary="+id+"&reference=attica", nil)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("client %d round %d: %s %s: %d: %s", c, i, req.Method, req.URL.Path, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if b := (&routerFixture{rtr: rtr, front: front}).status(t).Primary; b.IdleConns > 32 || b.IdleConns == 0 || b.Errors != 0 || b.Requests != clients*rounds {
		t.Fatalf("pool after %d concurrent clients: %+v", clients, b)
	}

	transport.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	front.Close()
	rtr.Close()
	waitUntil(t, "the router's goroutines and connections to go away", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// hopFixture is an in-process backend, a router in front of it, and one
// keep-alive client: the router hop and nothing else.
type hopFixture struct {
	client   *http.Client
	direct   string
	routed   string
	teardown func()
}

func newHopFixture(tb testing.TB) *hopFixture {
	payload := []byte(`{"data":{"primary":"attica","reference":"peloponnesos","relation":"NE:E"}}`)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"g12"`)
		w.Write(payload)
	}))
	rtr, err := replica.NewRouter(replica.RouterOptions{Primary: backend.URL, Logger: quietLogger()})
	if err != nil {
		tb.Fatal(err)
	}
	front := httptest.NewServer(rtr.Handler())
	transport := &http.Transport{}
	return &hopFixture{
		client: &http.Client{Transport: transport},
		direct: backend.URL + "/v1/relation?primary=attica&reference=peloponnesos",
		routed: front.URL + "/v1/relation?primary=attica&reference=peloponnesos",
		teardown: func() {
			transport.CloseIdleConnections()
			front.Close()
			rtr.Close()
			backend.Close()
		},
	}
}

func (h *hopFixture) get(tb testing.TB, url string) {
	resp, err := h.client.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		tb.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// maxHopAllocs is the ceiling on what one forwarded GET allocates in the
// router: the same request through the router minus straight at the
// backend, client and backend in-process on both sides of the subtraction.
// What is left includes the router's own net/http server reading the
// request (≈ 27). Measured 52 with this forwarder, 86 with the stdlib
// reverse proxy over http.DefaultTransport at the parent commit (go1.24,
// linux/amd64).
const maxHopAllocs = 58

// TestRouterForwardAllocs pins the forwarder's allocations per request.
func TestRouterForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := newHopFixture(t)
	defer h.teardown()
	for i := 0; i < 20; i++ { // dial, pool and warm both paths
		h.get(t, h.direct)
		h.get(t, h.routed)
	}
	direct := testing.AllocsPerRun(300, func() { h.get(t, h.direct) })
	routed := testing.AllocsPerRun(300, func() { h.get(t, h.routed) })
	hop := routed - direct
	t.Logf("allocs per GET: %.0f through the router, %.0f direct: %.0f for the hop", routed, direct, hop)
	if hop > maxHopAllocs {
		t.Fatalf("the router hop allocates %.0f objects per forwarded GET, ceiling %d", hop, maxHopAllocs)
	}
}

// BenchmarkRouterHop times one keep-alive GET through the router against an
// in-process backend: ns/op and allocs/op cover client, router and backend.
func BenchmarkRouterHop(b *testing.B) {
	h := newHopFixture(b)
	defer h.teardown()
	h.get(b, h.routed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.get(b, h.routed)
	}
}

// TestReplicaStoppedFailsHealth: a replica whose tail loop died on a record
// its store refuses serves a frozen world; its health check must say so, so
// that the router stops sending it reads.
func TestReplicaStoppedFailsHealth(t *testing.T) {
	p := newPrimaryFixture(t, false)
	// The victim tails the primary through a stub that, once armed, ships
	// an add of a region the replica already has.
	var poison atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/wal" || !poison.Load() {
			p.ts.Config.Handler.ServeHTTP(w, r)
			return
		}
		var from uint64
		fmt.Sscan(r.URL.Query().Get("from"), &from)
		dup := replica.NewStreamRecord(from, 1<<20, wal.Record{Op: wal.OpAdd, ID: "attica", Geometry: workload.BoxRegion(0, 0, 1, 1)})
		w.Header().Set(replica.HeaderEpoch, p.prim.Epoch())
		w.Header().Set(replica.HeaderHead, fmt.Sprint(from))
		w.Write(replica.EncodeStream([]replica.StreamRecord{dup}))
	}))
	defer stub.Close()
	good := newReplicaFixture(t, p.ts.URL, "")
	victim := newReplicaFixture(t, stub.URL, "")
	f := newRouterFixture(t, p.ts.URL, good.ts.URL, victim.ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.rtr.Run(ctx)
	waitUntil(t, "both replicas healthy", func() bool { return f.status(t).HealthyReplicas == 2 })

	poison.Store(true)
	select {
	case <-victim.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the tail loop survived a record its store must refuse")
	}
	if victim.rep.Err() == nil {
		t.Fatal("the tail loop stopped without latching its error")
	}
	status, _, body := get(t, victim.ts.URL, "/v1/healthz", nil)
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "replication stopped") {
		t.Fatalf("healthz on a stopped replica: %d: %s", status, body)
	}
	if st := victim.rep.Status(); st.LastError == "" {
		t.Fatalf("status lost the error: %+v", st)
	}
	waitUntil(t, "the router to drop the stopped replica", func() bool { return f.status(t).HealthyReplicas == 1 })
	served := victim.served.Load()
	for i := 0; i < 6; i++ {
		if status, _, body := get(t, f.front.URL, "/v1/regions/attica", nil); status != 200 {
			t.Fatalf("read %d after the replica stopped: %d: %s", i, status, body)
		}
	}
	if victim.served.Load() != served {
		t.Fatal("the router still sends reads to the stopped replica")
	}
	if status, _, _ := get(t, good.ts.URL, "/v1/healthz", nil); status != 200 {
		t.Fatalf("the healthy replica's healthz: %d", status)
	}
}

// TestNewRouterRefusesHTTPS: the router forwards over plain HTTP only, so
// an https primary or replica fails at construction — at startup for
// cardirectd -role router — not at the first request.
func TestNewRouterRefusesHTTPS(t *testing.T) {
	for _, opt := range []replica.RouterOptions{
		{Primary: "https://127.0.0.1:8443"},
		{Primary: "http://127.0.0.1:8080", Replicas: []string{"https://127.0.0.1:8444"}},
	} {
		if _, err := replica.NewRouter(opt); err == nil {
			t.Errorf("NewRouter(%+v) accepted an https upstream", opt)
		}
	}
}
