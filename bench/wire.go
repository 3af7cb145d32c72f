package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newConn returns a client that holds exactly one keep-alive connection per
// host: a sender is a connection, and the number of senders is the number
// of connections the daemon sees.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// fetch sends one request and reads the whole answer.
func fetch(client *http.Client, method, url string, body []byte, header map[string]string) (status int, respBody []byte, respHeader http.Header, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	return resp.StatusCode, respBody, resp.Header, err
}

// parseGeneration reads the store generation out of an ETag ("g42").
func parseGeneration(etag string) (uint64, bool) {
	s := strings.Trim(etag, `"`)
	if !strings.HasPrefix(s, "g") {
		return 0, false
	}
	gen, err := strconv.ParseUint(s[1:], 10, 64)
	return gen, err == nil
}

// generationOf asks a daemon for its current store generation.
func generationOf(client *http.Client, base string) (uint64, error) {
	status, _, header, err := fetch(client, "GET", base+"/v1/stats", nil, nil)
	if err != nil {
		return 0, err
	}
	gen, ok := parseGeneration(header.Get("ETag"))
	if status != 200 || !ok {
		return 0, fmt.Errorf("GET %s/v1/stats: status %d, ETag %q", base, status, header.Get("ETag"))
	}
	return gen, nil
}

// tally is the run's failure accounting: every request attempted, and every
// way one can fail. A run is correct only when the three failure counts
// are all zero.
type tally struct {
	attempted  atomic.Int64
	transport  atomic.Int64 // no HTTP answer at all
	badStatus  atomic.Int64 // an answer with a status the request cannot have
	mismatches atomic.Int64 // an answer the oracle disagrees with
	checked    atomic.Int64 // answers compared with the oracle
	unjudged   atomic.Int64 // sampled answers an edit in flight made unjudgeable

	mu     sync.Mutex
	shown  int
	prefix string
}

func (t *tally) failed() int64 {
	return t.transport.Load() + t.badStatus.Load() + t.mismatches.Load()
}

// complain prints the first few failures in full; a broken build fails
// thousands of requests the same way.
func (t *tally) complain(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shown++; t.shown <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAIL "+format+"\n", args...)
	}
}

// fail counts one failure that is not tied to a single request (a lost
// edit, a replica that never converged).
func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.mismatches.Add(1)
	t.complain(format, args...)
}

// wire sends the generator's requests to real daemons.
type wire struct {
	gen   *generator
	tally *tally
	base  string // where the requests go: the one daemon, or the router
	conns []*http.Client
	etags []string // per sender: the last validator seen
}

func newWire(gen *generator, t *tally, senders int, base string) *wire {
	w := &wire{gen: gen, tally: t, base: base, etags: make([]string, senders)}
	for i := 0; i < senders; i++ {
		w.conns = append(w.conns, newConn())
	}
	return w
}

func (w *wire) close() {
	for _, c := range w.conns {
		c.CloseIdleConnections()
	}
}

// do is the doFunc of the wire: build, send, time, then judge.
func (w *wire) do(sender int, o op) (opKind, time.Time, bool) {
	r := w.gen.build(o, w.etags[sender])
	w.tally.attempted.Add(1)
	req, err := r.httpRequest(w.base)
	if err != nil {
		panic(err) // the generator built a malformed URL: a harness bug
	}
	sent := time.Now()
	resp, err := w.conns[sender].Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	if err != nil {
		w.tally.transport.Add(1)
		w.tally.complain("%s %s: %v", r.method, r.path, err)
		if r.edit != nil {
			w.gen.w.endEdit(*r.edit, false)
		}
		return r.kind, done, true
	}
	if et := resp.Header.Get("ETag"); et != "" {
		w.etags[sender] = et
	}
	return r.kind, done, w.gen.judge(w.tally, r, resp.StatusCode, resp.Header.Get("ETag"), body, sent)
}

// judge settles one answered request: the edit it carried is applied to the
// oracle (or rolled back), the status is checked, and a sampled body is
// compared with the oracle. It reports whether the request failed.
func (g *generator) judge(t *tally, r *request, status int, etag string, body []byte, sent time.Time) (failed bool) {
	v := view{sent: sent}
	v.gen, v.hasGen = parseGeneration(etag)
	okStatus := status == r.wantStatus || (r.alsoOK != 0 && status == r.alsoOK)
	if r.edit != nil {
		g.w.endEdit(*r.edit, okStatus)
	}
	if !okStatus {
		t.badStatus.Add(1)
		t.complain("%s %s: status %d, want %d: %.200s", r.method, r.path, status, r.wantStatus, body)
		return true
	}
	if r.check == nil {
		return false
	}
	checked, err := r.check(body, v)
	switch {
	case err != nil:
		t.mismatches.Add(1)
		t.complain("%s %s: %v", r.method, r.path, err)
		return true
	case checked:
		t.checked.Add(1)
	default:
		t.unjudged.Add(1)
	}
	return false
}
