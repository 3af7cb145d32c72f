package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// opKind is one kind of request the generator sends.
type opKind uint8

const (
	opRelation    opKind = iota // GET /v1/relation
	opRelationPct               // GET /v1/relation?pct=1
	opSelect                    // GET /v1/select
	opQueryHit                  // POST /v1/query, one of the parameterised texts
	opQueryMiss                 // POST /v1/query, a text never sent before
	opRegionGet                 // GET /v1/regions/{id}
	opNotModified               // GET /v1/relation with If-None-Match
	opPut                       // PUT /v1/regions/{id}
	opAdd                       // POST /v1/regions
	opDelete                    // DELETE /v1/regions/{id}
	opRename                    // POST /v1/regions/{id}/rename
	numOpKinds
)

// classNames are the operation classes latencies are reported under; the
// two query kinds share one class.
var classNames = [numOpKinds]string{
	"relation", "relation_pct", "select", "query", "query", "region_get",
	"not_modified", "region_put", "region_add", "region_delete", "region_rename",
}

func (k opKind) class() string { return classNames[k] }
func (k opKind) isWrite() bool { return k >= opPut }

// mixEntry is one kind's share of a traffic mix, in percent.
type mixEntry struct {
	kind  opKind
	share int
}

// op is one scheduled request: when it is due (from the phase start), what
// kind it is, and the random draws its target is resolved from at send
// time. The schedule is a pure function of the seed.
type op struct {
	at         time.Duration
	kind       opKind
	r1, r2, r3 uint64
}

// dealer deals operations from shuffled decks. A deck holds every kind as
// many times as its share of the mix, so any deckSize(mix) consecutive
// operations dealt from a deck boundary have exactly the mix's proportions:
// two windows of a run then differ in when they ran, not in how many
// expensive operations chance put into them.
type dealer struct {
	rng  *rand.Rand
	deck []opKind
	next int
}

func deckSize(mix []mixEntry) int {
	n := 0
	for _, m := range mix {
		n += m.share
	}
	return n
}

func newDealer(rng *rand.Rand, mix []mixEntry) *dealer {
	d := &dealer{rng: rng, deck: make([]opKind, 0, deckSize(mix))}
	for _, m := range mix {
		for i := 0; i < m.share; i++ {
			d.deck = append(d.deck, m.kind)
		}
	}
	d.next = len(d.deck)
	return d
}

// deal returns the next operation: its kind from the deck (reshuffled when
// it runs out) and fresh random draws for its target.
func (d *dealer) deal() op {
	if d.next == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	kind := d.deck[d.next]
	d.next++
	return op{kind: kind, r1: d.rng.Uint64(), r2: d.rng.Uint64(), r3: d.rng.Uint64()}
}

// schedule lays out rate·dur evenly spaced operations whose kinds follow
// mix. Independent users make an open loop: the times are fixed here and do
// not move when the server is slow.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, mix []mixEntry) []op {
	ops := make([]op, int(rate*dur.Seconds()))
	d := newDealer(rng, mix)
	for i := range ops {
		ops[i] = d.deal()
		ops[i].at = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return ops
}

// queryText is one parameterised query of the mix: y (or x) is pinned to
// $ref, the other variable ranges over the world.
type queryText struct {
	text string
	// refIsReference: $ref binds y and x ranges (x R ref); otherwise $ref
	// binds x and y ranges (ref R y).
	refIsReference bool
	rels           string
	color          bool
}

// queryTexts are the eight repeated texts (plan-cache hits after the first
// use). The relation sets are single bands around the pinned region, so on
// the Cluster worlds a text binds a few dozen to a few hundred rows.
var queryTexts = []queryText{
	{"q(x, y) :- y = $ref, x {N, NW:N, N:NE, NW:N:NE} y", true, "{N, NW:N, N:NE, NW:N:NE}", false},
	{"q(x, y) :- y = $ref, x {S, S:SW, S:SE, S:SW:SE} y", true, "{S, S:SW, S:SE, S:SW:SE}", false},
	{"q(x, y) :- y = $ref, x {E, NE:E, E:SE, NE:E:SE} y", true, "{E, NE:E, E:SE, NE:E:SE}", false},
	{"q(x, y) :- y = $ref, x {W, W:NW, SW:W, SW:W:NW} y", true, "{W, W:NW, SW:W, SW:W:NW}", false},
	{"q(x, y) :- y = $ref, color(x) = $c, x {N, NE, NW} y", true, "{N, NE, NW}", true},
	{"q(x, y) :- y = $ref, color(x) = $c, x {S, SE, SW} y", true, "{S, SE, SW}", true},
	{"q(x, y) :- x = $ref, x {E, NE:E, E:SE} y", false, "{E, NE:E, E:SE}", false},
	{"q(x, y) :- x = $ref, color(y) = $c, x {NW, W, SW} y", false, "{NW, W, SW}", true},
}

// selectSets are the relation sets directional selections ask for.
var selectSets = []string{
	"{N, NW:N, N:NE}", "{S, S:SW, S:SE}", "{E, NE:E, E:SE}", "{W, W:NW, SW:W}",
	"{NE}", "{SW}", "{N, NE, NW}", "{B:N, B:S, B:E, B:W}",
}

// missSets vary the never-repeated query texts; with the pinned id they
// give n·len(missSets) distinct texts.
var missSets = []string{
	"{N}", "{S}", "{E}", "{W}", "{NE}", "{NW}", "{SE}", "{SW}",
	"{N, NE}", "{N, NW}", "{S, SE}", "{S, SW}", "{E, NE}", "{E, SE}", "{W, NW}", "{W, SW}",
}

const hotSetSize = 32

// generator turns scheduled ops into requests against one world and checks
// the answers against the oracle.
type generator struct {
	w *world
	// checkEvery samples the expensive checks (select, query): one in
	// checkEvery is compared with the oracle's full scan. Pair reads are
	// cheap to check and are all checked.
	checkEvery uint64
	missSeq    atomic.Uint64
	relSets    map[string]core.RelationSet
}

func newGenerator(w *world) *generator {
	g := &generator{w: w, checkEvery: 8, relSets: map[string]core.RelationSet{}}
	var all []string
	all = append(all, selectSets...)
	all = append(all, missSets...)
	for _, q := range queryTexts {
		all = append(all, q.rels)
	}
	for _, s := range all {
		rs, err := core.ParseRelationSet(s)
		if err != nil {
			panic(fmt.Sprintf("bench: bad relation set %q: %v", s, err))
		}
		g.relSets[s] = rs
	}
	return g
}

// pair picks an ordered pair of distinct core ids: half the draws come from
// the hot set (the first hotSetSize ids), half from all n² pairs.
func (g *generator) pair(o op) (string, string) {
	n := uint64(g.w.nCore)
	if o.r3&1 == 0 && n > hotSetSize {
		n = hotSetSize
	}
	a := o.r1 % n
	b := o.r2 % (n - 1)
	if b >= a {
		b++ // never a == b: the self pair is a 400 by construction
	}
	return coreID(int(a)), coreID(int(b))
}

// request is one built request plus what its answer must be.
type request struct {
	method string
	path   string // path and query, without the base URL
	body   []byte
	etag   string // If-None-Match value, when conditional
	kind   opKind
	// wantStatus is the status the answer must have; alsoOK, when set, is
	// a second acceptable one.
	wantStatus, alsoOK int
	edit               *edit
	// What the request is about, for the traced run, which issues the same
	// operation directly at each layer: the pair (a, b) of a relation read,
	// a as the pinned region of a selection, query or region read.
	a, b  string
	set   string            // selection: the relation set
	query string            // query: text and arguments
	args  map[string]string //
	// check compares a response body with the oracle; nil means only the
	// status is checked. It returns checked=false when the world moved
	// under the read and the answer cannot be judged.
	check func(body []byte, v view) (checked bool, err error)
}

func (r *request) httpRequest(base string) (*http.Request, error) {
	var body io.Reader // stays an untyped nil when there is no body
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	return req, nil
}

// build resolves a scheduled op against the current world. lastETag is the
// sender's most recent validator (for the conditional reads).
func (g *generator) build(o op, lastETag string) *request {
	switch o.kind {
	case opRelation, opRelationPct, opNotModified:
		a, b := g.pair(o)
		path := "/v1/relation?primary=" + a + "&reference=" + b
		r := &request{method: "GET", path: path, kind: o.kind, wantStatus: 200, a: a, b: b}
		pct := o.kind == opRelationPct
		if pct {
			r.path += "&pct=1"
		}
		if o.kind == opNotModified && lastETag != "" {
			r.etag = lastETag
			r.wantStatus, r.alsoOK = 304, 200 // 200 when an edit moved the generation
		}
		r.check = func(body []byte, v view) (bool, error) {
			if len(body) == 0 {
				return false, nil // 304: nothing to compare
			}
			return g.checkRelation(body, a, b, pct, v)
		}
		return r
	case opSelect:
		ref := coreID(int(o.r1 % uint64(g.w.nCore)))
		set := selectSets[o.r2%uint64(len(selectSets))]
		r := &request{method: "GET", kind: o.kind, wantStatus: 200, a: ref, set: set,
			path: "/v1/select?reference=" + ref + "&relation=" + url.QueryEscape(set)}
		if o.r3%g.checkEvery == 0 {
			r.check = func(body []byte, v view) (bool, error) {
				return g.checkSelect(body, ref, set, v)
			}
		}
		return r
	case opQueryHit, opQueryMiss:
		ref := coreID(int(o.r1 % uint64(g.w.nCore)))
		var qt queryText
		var args map[string]string
		color := ""
		if o.kind == opQueryHit {
			qt = queryTexts[o.r2%uint64(len(queryTexts))]
			args = map[string]string{"ref": ref}
			if qt.color {
				color = colors[o.r3>>8%uint64(len(colors))]
				args["c"] = color
			}
		} else {
			k := g.missSeq.Add(1) - 1
			ref = coreID(int(k % uint64(g.w.nCore)))
			set := missSets[(k/uint64(g.w.nCore))%uint64(len(missSets))]
			// n·len(missSets) distinct texts: far more than one run sends.
			qt = queryText{text: fmt.Sprintf("q(x, y) :- y = %s, x %s y", ref, set), refIsReference: true, rels: set}
		}
		body, _ := json.Marshal(struct {
			Q    string            `json:"q"`
			Args map[string]string `json:"args,omitempty"`
		}{qt.text, args})
		r := &request{method: "POST", path: "/v1/query", body: body, kind: o.kind, wantStatus: 200, a: ref, query: qt.text, args: args}
		if o.r3%g.checkEvery == 0 {
			r.check = func(body []byte, v view) (bool, error) {
				return g.checkQuery(body, qt, ref, color, v)
			}
		}
		return r
	case opRegionGet:
		id := coreID(int(o.r1 % uint64(g.w.nCore)))
		r := &request{method: "GET", path: "/v1/regions/" + id, kind: o.kind, wantStatus: 200, a: id}
		if o.r3%g.checkEvery == 0 {
			r.check = func(body []byte, v view) (bool, error) {
				return g.checkRegion(body, id, v)
			}
		}
		return r
	}
	return g.buildEdit(o)
}

// buildEdit resolves a write against the world; kinds with no eligible
// target right now degrade to an add, which always has one.
func (g *generator) buildEdit(o op) *request {
	e, ok := g.w.beginEdit(o.kind, o.r1, o.r2, o.r3)
	if !ok {
		e, _ = g.w.beginEdit(opAdd, o.r1, o.r2, o.r3)
	}
	r := &request{kind: e.kind, edit: &e}
	switch e.kind {
	case opPut:
		r.method, r.path, r.wantStatus = "PUT", "/v1/regions/"+e.id, 200
		r.body, _ = json.Marshal(map[string]string{"wkt": geom.FormatWKT(e.geom)})
	case opAdd:
		r.method, r.path, r.wantStatus = "POST", "/v1/regions", 201
		r.body, _ = json.Marshal(map[string]string{"id": e.id, "name": e.id, "color": e.color, "wkt": geom.FormatWKT(e.geom)})
	case opDelete:
		r.method, r.path, r.wantStatus = "DELETE", "/v1/regions/"+e.id, 204
	case opRename:
		r.method, r.path, r.wantStatus = "POST", "/v1/regions/"+e.id+"/rename", 200
		r.body, _ = json.Marshal(map[string]string{"new_id": e.newID})
	}
	return r
}

// envelope is the success wrapper of every /v1 body.
type envelope struct {
	Data json.RawMessage `json:"data"`
}

func unwrap(body []byte, v any) error {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding envelope: %w", err)
	}
	if env.Data == nil {
		return fmt.Errorf("no data in %.120q", body)
	}
	return json.Unmarshal(env.Data, v)
}

// pctTolerance is the absolute slack, in percentage points, between the
// store's prepared-kernel percent matrix and the oracle's one-shot
// Compute-CDR%: the two sum tile areas in different orders.
const pctTolerance = 1e-6

func (g *generator) checkRelation(body []byte, a, b string, pct bool, v view) (bool, error) {
	var got struct {
		Relation string             `json:"relation"`
		Pct      map[string]float64 `json:"pct"`
	}
	if err := unwrap(body, &got); err != nil {
		return true, err
	}
	g.w.mu.Lock()
	sa, sb := *g.w.regions[a], *g.w.regions[b]
	g.w.mu.Unlock()
	if sa.unstable(v) || sb.unstable(v) {
		return false, nil
	}
	want, err := oracleRelation(sa.geom, sb.geom)
	if err != nil {
		return true, err
	}
	if got.Relation != want {
		return true, fmt.Errorf("relation(%s, %s) = %s, oracle says %s", a, b, got.Relation, want)
	}
	if !pct {
		return true, nil
	}
	m, _, err := core.ComputeCDRPct(sa.geom, sb.geom)
	if err != nil {
		return true, err
	}
	for _, t := range core.Tiles() {
		if d := math.Abs(got.Pct[t.String()] - m.Get(t)); d > pctTolerance {
			return true, fmt.Errorf("pct(%s, %s)[%s] = %v, oracle says %v", a, b, t, got.Pct[t.String()], m.Get(t))
		}
	}
	return true, nil
}

// compareSets checks got against want, ignoring ids for which skip holds.
func compareSets(what string, got []string, want map[string]bool, skip func(string) bool, describe func(string) string) error {
	seen := map[string]bool{}
	for _, id := range got {
		seen[id] = true
		if !want[id] && !skip(id) {
			return fmt.Errorf("%s: %s returned, oracle excludes it (%s)", what, id, describe(id))
		}
	}
	for id := range want {
		if !seen[id] && !skip(id) {
			return fmt.Errorf("%s: %s missing, oracle includes it (%s)", what, id, describe(id))
		}
	}
	return nil
}

// scan runs the oracle's naive selection for a pinned region. Regions an
// edit touched while the read was in flight are left out of the comparison
// on both sides; a pinned region in that state makes the read unjudgeable.
func (g *generator) scan(pinned string, pinnedIsReference bool, set, color string, v view) (want map[string]bool, skip func(string) bool, describe func(string) string, ok bool, err error) {
	snap, gone := g.w.snapshot()
	if snap[pinned].unstable(v) {
		return nil, nil, nil, false, nil
	}
	// describe says what the oracle knows about a region a comparison
	// tripped over: a failing run has to be diagnosable from its output.
	describe = func(id string) string {
		st, state := snap[id], "live"
		if st == nil {
			if st, state = gone[id], "departed"; st == nil {
				return "never existed"
			}
		}
		s := fmt.Sprintf("%s, color %s, last edit acknowledged %v before the read was sent, read served at generation %d, edit safe from %d",
			state, st.color, v.sent.Sub(st.changed).Round(time.Microsecond), v.gen, st.safeGen)
		if state == "live" {
			a, b := st.geom, snap[pinned].geom
			if !pinnedIsReference {
				a, b = b, a
			}
			if rel, err := core.ComputeCDR(a, b); err == nil {
				s += fmt.Sprintf(", oracle relation %v", rel)
			}
		}
		return s
	}
	skip = func(id string) bool {
		if st, live := snap[id]; live {
			return st.unstable(v)
		}
		// An id that left the world is excused only while the read could
		// still have seen it; an id that never existed never is.
		t, was := gone[id]
		return was && t.unstable(v)
	}
	allowed := g.relSets[set]
	want = map[string]bool{}
	p := snap[pinned].geom
	for id, st := range snap {
		if id == pinned || st.unstable(v) || (color != "" && st.color != color) {
			continue
		}
		var rel core.Relation
		if pinnedIsReference {
			rel, err = core.ComputeCDR(st.geom, p)
		} else {
			rel, err = core.ComputeCDR(p, st.geom)
		}
		if err != nil {
			return nil, nil, nil, true, err
		}
		if allowed.Contains(rel) {
			want[id] = true
		}
	}
	return want, skip, describe, true, nil
}

func (g *generator) checkSelect(body []byte, ref, set string, v view) (bool, error) {
	var got struct {
		Matches []string `json:"matches"`
	}
	if err := unwrap(body, &got); err != nil {
		return true, err
	}
	want, skip, describe, ok, err := g.scan(ref, true, set, "", v)
	if !ok || err != nil {
		return ok, err
	}
	return true, compareSets("select("+ref+", "+set+")", got.Matches, want, skip, describe)
}

func (g *generator) checkQuery(body []byte, qt queryText, ref, color string, v view) (bool, error) {
	var got struct {
		Bindings []map[string]string `json:"bindings"`
	}
	if err := unwrap(body, &got); err != nil {
		return true, err
	}
	want, skip, describe, ok, err := g.scan(ref, qt.refIsReference, qt.rels, color, v)
	if !ok || err != nil {
		return ok, err
	}
	free, pinned := "x", "y"
	if !qt.refIsReference {
		free, pinned = "y", "x"
	}
	ids := make([]string, 0, len(got.Bindings))
	for _, b := range got.Bindings {
		if b[pinned] != ref {
			return true, fmt.Errorf("query %q: binding %v does not pin %s to %s", qt.text, b, pinned, ref)
		}
		ids = append(ids, b[free])
	}
	return true, compareSets("query "+qt.text+" ["+ref+"]", ids, want, skip, describe)
}

func (g *generator) checkRegion(body []byte, id string, v view) (bool, error) {
	var got struct {
		WKT string `json:"wkt"`
	}
	if err := unwrap(body, &got); err != nil {
		return true, err
	}
	g.w.mu.Lock()
	st := *g.w.regions[id]
	g.w.mu.Unlock()
	if st.unstable(v) {
		return false, nil
	}
	if want := geom.FormatWKT(st.geom); got.WKT != want {
		return true, fmt.Errorf("region %s geometry differs from the oracle's", id)
	}
	return true, nil
}
