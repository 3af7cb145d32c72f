package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a clock only the test moves: sleeping jumps to the wake-up
// time, and the fake server below adds its service times.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// A server that stalls once must inflate the latency of the requests that
// fell due during the stall, although each of those is itself served fast:
// that is the wait a real user would have had, and what timing from the
// actual send (coordinated omission) hides.
func TestOpenLoopCountsTheWaitBehindAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ops := make([]op, 100)
	for i := range ops {
		ops[i].at = time.Duration(i) * 10 * time.Millisecond
		ops[i].r1 = uint64(i)
	}
	server := func(_ int, o op) (opKind, time.Time, bool) {
		service := time.Millisecond
		if o.r1 == 10 {
			service = 100 * time.Millisecond
		}
		clk.now = clk.now.Add(service)
		return opRelation, clk.now, false
	}
	res := runOpen(clk, ops, 1, server)

	if got := res.samples[9]; got.latency != time.Millisecond || got.late != 0 || !got.waited {
		t.Errorf("before the stall: %+v, want 1ms latency, on time, sender idle", got)
	}
	// Op 11 fell due at 110ms; the stalled op 10 held the connection until
	// 200ms, so it went out 90ms late and was answered at 201ms.
	got := res.samples[11]
	if got.service != time.Millisecond {
		t.Errorf("op 11 service = %v, want 1ms", got.service)
	}
	if got.late != 90*time.Millisecond || got.latency != 91*time.Millisecond {
		t.Errorf("op 11 late %v latency %v, want 90ms and 91ms from its due time", got.late, got.latency)
	}
	if got.waited {
		t.Error("op 11 found the sender busy, yet is marked as generator lateness")
	}
	if res.backlogMax < 9 {
		t.Errorf("backlogMax = %d, want the nine operations that fell due during the stall", res.backlogMax)
	}
	// The queue drains at 1ms per op against 10ms arrivals, so the phase
	// ends caught up.
	if res.growing() {
		t.Error("a drained queue reported as growing")
	}
	if last := res.samples[99]; last.late != 0 {
		t.Errorf("last op still late by %v", last.late)
	}
}

// A server slower than the arrival rate never catches up: the backlog at
// the end is the signal that the offered rate was not sustained.
func TestOpenLoopReportsAGrowingBacklog(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ops := make([]op, 50)
	for i := range ops {
		ops[i].at = time.Duration(i) * time.Millisecond
	}
	slow := func(int, op) (opKind, time.Time, bool) {
		clk.now = clk.now.Add(3 * time.Millisecond)
		return opRelation, clk.now, false
	}
	if res := runOpen(clk, ops, 1, slow); !res.growing() {
		t.Errorf("overload not reported: last op late by %v", res.samples[len(ops)-1].late)
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	res := runClosed(clk, time.Second, 1, func(int) op { return op{} }, func(int, op) (opKind, time.Time, bool) {
		clk.now = clk.now.Add(4 * time.Millisecond)
		return opSelect, clk.now, false
	})
	if len(res.samples) != 250 || res.perSecond() != 250 {
		t.Errorf("%d completions, %.1f/s; want 250 at 4ms each", len(res.samples), res.perSecond())
	}
	// Five blocks of whole decks of 20: 40 operations each, 160 ms a block.
	rates := res.blockRates(20, 5)
	if len(rates) != 6 || rates[0] != 250 || rates[5] != 250 {
		t.Errorf("block rates %v, want six blocks of 40 operations at 250/s", rates)
	}
}

// A deck deals exactly the mix: every window of whole decks holds the same
// number of each kind, whatever the seed.
func TestDealerDealsExactShares(t *testing.T) {
	d := newDealer(rand.New(rand.NewSource(3)), readMix.mix)
	if deckSize(readMix.mix) != 100 {
		t.Fatalf("deck of %d, want 100", deckSize(readMix.mix))
	}
	for deck := 0; deck < 3; deck++ {
		heavy := 0
		for i := 0; i < 100; i++ {
			if readMix.heavy(d.deal().kind) {
				heavy++
			}
		}
		if heavy != 14 {
			t.Errorf("deck %d dealt %d queries, want the mix's 14", deck, heavy)
		}
	}
}

// The run's figure is the window a tenth of the windows beat: one burst of
// interference moves it no more than one lucky window does.
func TestQuietWindows(t *testing.T) {
	vs := make([]float64, 0, 200)
	for w := 0; w < 20; w++ {
		for i := 0; i < 10; i++ {
			vs = append(vs, float64(100+w)) // window w reads 100+w
		}
	}
	ws := windowMedians(vs, 10)
	if len(ws) != 20 || ws[0] != 100 || ws[19] != 119 {
		t.Fatalf("window medians %v", ws)
	}
	if got := quietLow(ws); got != 101 {
		t.Errorf("quietLow = %v, want the second fastest of twenty windows", got)
	}
	if got := quietHigh(ws); got != 117 {
		t.Errorf("quietHigh = %v, want 117", got)
	}
	ws[7] = 5000 // a burst
	if got := quietLow(ws); got != 101 {
		t.Errorf("a disturbed window moved quietLow to %v", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(vs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// Self time is the span minus what its children cover: overlapping children
// count once, a child is clipped to its parent, grandchildren only reduce
// their own parent.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "serve.handler.x", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "core.a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "core.b", StartNs: 30, EndNs: 60}, // overlaps a by 10
		{ID: 3, Parent: 0, Name: "wal.c", StartNs: 90, EndNs: 130}, // runs past the parent
		{ID: 4, Parent: 1, Name: "geom.d", StartNs: 10, EndNs: 25}, // grandchild
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60] and [90,100]
		30 - 15,
		30,
		40,
		15,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// Shadow calls are laid out inside their parent one after the other, nested
// the way they were given, so the same arithmetic applies to them.
func TestShadowCallsNestInsideTheirParent(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("serve.handler.region_put", -1, 7)
	tr.spans[root].StartNs, tr.spans[root].EndNs = 1000, 2000
	tr.shadow(root, 7, []call{
		{name: "geom.ParseWKT", ns: 100},
		{name: "replica.Primary.SetRegionGeometry", ns: 700, children: []call{
			{name: "persist.Store.SetRegionGeometry", ns: 650, children: []call{
				{name: "wal.Writer.Append", ns: 300},
				{name: "config.Tracked.SetRegionGeometry", ns: 250},
			}},
		}},
	})
	self := selfTimes(tr.spans)
	byName := map[string]int64{}
	for _, s := range tr.spans {
		byName[s.Name] = self[s.ID]
		if s.Req != 7 {
			t.Errorf("span %s lost its request id", s.Name)
		}
	}
	want := map[string]int64{
		"serve.handler.region_put":          200,
		"geom.ParseWKT":                     100,
		"replica.Primary.SetRegionGeometry": 50,
		"persist.Store.SetRegionGeometry":   100,
		"wal.Writer.Append":                 300,
		"config.Tracked.SetRegionGeometry":  250,
	}
	if !reflect.DeepEqual(byName, want) {
		t.Errorf("self times %v, want %v", byName, want)
	}
	if shares := layerShares(tr.spans); shares["wal"] != 0.3 || shares["serve"] != 0.2 {
		t.Errorf("layer shares %v, want wal 0.3 and serve 0.2", shares)
	}
	off := newTracer(false)
	off.shadow(off.begin("x", -1, 0), 0, []call{{name: "y", ns: 1}})
	if len(off.spans) != 0 {
		t.Error("a tracer that is off recorded spans")
	}
}

func TestMaxRateStepRule(t *testing.T) {
	ok := func(rate float64) ladderStep { return ladderStep{rate: rate, p99Us: 5000} }
	for _, c := range []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{ok(300), ok(600), ok(1200)}, 1200},
		{"p99 over the limit", []ladderStep{ok(300), ok(600), {rate: 1200, p99Us: 10001}}, 600},
		{"a failed request", []ladderStep{ok(300), {rate: 600, p99Us: 100, failed: 1}, ok(1200)}, 300},
		{"a growing backlog", []ladderStep{ok(300), ok(600), {rate: 1200, p99Us: 100, growing: true}}, 600},
		{"a pass above a failure does not count", []ladderStep{{rate: 300, p99Us: 20000}, ok(600)}, 0},
	} {
		if got := maxRate(c.steps, 10000); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(5)), 600, time.Second, readMix.mix)
	b := schedule(rand.New(rand.NewSource(5)), 600, time.Second, readMix.mix)
	c := schedule(rand.New(rand.NewSource(6)), 600, time.Second, readMix.mix)
	if len(a) != 600 || !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	if a[599].at != time.Duration(599)*time.Second/600 {
		t.Errorf("last op due at %v: the schedule is not evenly spaced", a[599].at)
	}
}

// The generator never aims a request at something that is a 4xx by
// construction, and the oracle excuses exactly the reads an edit raced with.
func TestWorldEditsAndExcuses(t *testing.T) {
	w := newWorld(1, 40, 5, 8)
	g := newGenerator(w)
	for i := 0; i < 1000; i++ {
		if a, b := g.pair(op{r1: rand.Uint64(), r2: rand.Uint64(), r3: rand.Uint64()}); a == b {
			t.Fatalf("pair picked %s twice: a self pair is a 400", a)
		}
	}
	// No churn region exists yet, so a delete degrades to an add.
	r := g.buildEdit(op{kind: opDelete, r1: 1, r2: 2, r3: 3})
	if r.kind != opAdd || r.method != "POST" {
		t.Fatalf("delete with nothing to delete became %v %s, want an add", r.kind, r.method)
	}
	before := time.Now()
	if st := w.regions[r.edit.id]; !st.unstable(view{sent: time.Now()}) {
		t.Error("a region whose add is on the wire is judged stable")
	}
	w.endEdit(*r.edit, true)
	st := w.regions[r.edit.id]
	if !st.unstable(view{sent: before}) {
		t.Error("a read sent before the acknowledgement is judged against the new state")
	}
	time.Sleep(time.Millisecond)
	if st.unstable(view{sent: time.Now()}) {
		t.Error("a read sent after the acknowledgement is excused")
	}
	// A replica serving from a generation before the edit is excused too;
	// one at or past the edit's generation is not.
	if !st.unstable(view{sent: time.Now(), gen: st.safeGen - 1, hasGen: true}) || st.unstable(view{sent: time.Now(), gen: st.safeGen, hasGen: true}) {
		t.Errorf("generation rule wrong around safeGen %d", st.safeGen)
	}
	// Two edits in flight never share a region.
	p1 := g.buildEdit(op{kind: opPut, r1: 7})
	p2 := g.buildEdit(op{kind: opPut, r1: 7})
	if p1.edit.id == p2.edit.id {
		t.Errorf("two concurrent edits of %s", p1.edit.id)
	}
	// A rename leaves a tombstone under the old id and the state under the new.
	w.endEdit(*p1.edit, true)
	w.endEdit(*p2.edit, true)
	ren := g.buildEdit(op{kind: opRename})
	// The daemon may answer with the new id before the rename is
	// acknowledged; the oracle must know it by then, as busy.
	if st := w.gone[ren.edit.newID]; st == nil || !st.unstable(view{sent: time.Now()}) {
		t.Errorf("rename target %s is unknown to the oracle while the rename is on the wire", ren.edit.newID)
	}
	w.endEdit(*ren.edit, true)
	if _, live := w.regions[ren.edit.id]; live || w.gone[ren.edit.id] == nil || w.regions[ren.edit.newID] == nil {
		t.Errorf("rename %s -> %s not reflected in the oracle", ren.edit.id, ren.edit.newID)
	}
}

func TestParseGeneration(t *testing.T) {
	if g, ok := parseGeneration(`"g42"`); !ok || g != 42 {
		t.Errorf(`parseGeneration("g42") = %d, %v`, g, ok)
	}
	for _, bad := range []string{"", `"42"`, `"gx"`} {
		if _, ok := parseGeneration(bad); ok {
			t.Errorf("parseGeneration(%q) accepted", bad)
		}
	}
}

// BENCHMARK.json and the harness must name the same workloads and the same
// metrics with the same units: the driver refuses a run whose result line
// lacks one.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, have)
	}
	for _, c := range []struct {
		what string
		decl []struct{ Name, Unit string }
		have map[string]string
	}{{"end_to_end", decl.EndToEnd, endToEndUnits}, {"per_layer", decl.PerLayer, perLayerUnits}} {
		seen := map[string]bool{}
		for _, m := range c.decl {
			seen[m.Name] = true
			if unit, ok := c.have[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s (%s): the harness reports unit %q, present %v", c.what, m.Name, m.Unit, unit, ok)
			}
		}
		for name := range c.have {
			if !seen[name] {
				t.Errorf("%s: the harness reports %s, BENCHMARK.json does not list it", c.what, name)
			}
		}
	}
	if _, ok := endToEndUnits["setup_s"]; !ok {
		t.Error("no setup_s among the end-to-end metrics")
	}
}
