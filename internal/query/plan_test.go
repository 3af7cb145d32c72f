package query

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// planWorld is one differential-test configuration: an image, and (for the
// tracked flavours) the maintained store behind it.
type planWorld struct {
	name string
	img  *config.Image
	tr   *config.Tracked
}

// buildPlanWorlds returns the three worlds the planner is differentially
// tested on: a scattered and a clustered synthetic configuration (tracked,
// so the planner's store probes and pushdown run against real maintained
// state) and the Greece fixture (untracked — the evaluator's private store).
func buildPlanWorlds(t *testing.T) []planWorld {
	t.Helper()
	g := workload.New(7)
	worlds := []planWorld{}
	for _, w := range []struct {
		name  string
		geoms []geom.Region
	}{
		{"scatter", g.Scatter(120, 8)},
		{"cluster", g.Cluster(120, 15, 8)},
	} {
		img := &config.Image{Name: w.name}
		for i, r := range w.geoms {
			id := fmt.Sprintf("w%04d", i)
			reg := config.Region{ID: id, Name: id, Color: fmt.Sprintf("c%d", i%5)}
			reg.SetGeometry(r)
			img.Regions = append(img.Regions, reg)
		}
		tr, err := config.Track(img, core.StoreOptions{Workers: 1, Pct: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		worlds = append(worlds, planWorld{name: w.name, img: img, tr: tr})
	}
	worlds = append(worlds, planWorld{name: "greece", img: config.Greece()})
	return worlds
}

func (w planWorld) evaluator(t *testing.T, planner bool) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(w.img)
	if err != nil {
		t.Fatal(err)
	}
	if w.tr != nil {
		ev.UseStore(w.tr.Store())
	}
	ev.SetPlanner(planner)
	return ev
}

// planDifferentialQueries covers every planner code path: pinned-reference
// and pinned-primary pushdown, negated conditions, disjunctive relation
// sets, attribute and percentage conditions, self-referencing conditions,
// and multi-variable joins. %s is a region id of the world under test.
var planDifferentialQueries = []string{
	"q(x, y) :- x {N, N:NE, NE} y",
	"q(x, y) :- y = %s, x {N, N:NE, NE, E} y",
	"q(x, y) :- x = %s, x {S, S:SW, SW} y",
	"q(x, y) :- y = %s, not x {N, NE, E, SE, S} y",
	"q(x, y) :- x = %s, not x {N, NE, E} y",
	"q(x, y) :- y = %s, pct(x N y) >= 10",
	"q(x, y) :- y = %s, x {S, S:SW, SW, W} y, color(x) = c1",
	"q(x, y) :- x {B} y",
	"q(x) :- x B x",
	"q(x, y, z) :- pct(x SW y) >= 20, z {N, N:NE, NE} x, z {S, S:SW, SW} y, z = %s",
	"q(x, y, z) :- z = %s, x {N, N:NE, NE, NW, N:NW} z, y {S, S:SW, SW} z",
	"q(x, y) :- pct(x NE y) > 0, pct(x NE y) < 100",
}

// TestPlannerDifferential: for every world and query shape, the cost-based
// planner must produce bit-identical bindings to written-order evaluation.
// The planner is a pure optimisation — any divergence is a bug, not a
// different answer.
func TestPlannerDifferential(t *testing.T) {
	for _, w := range buildPlanWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			pin := w.img.Regions[len(w.img.Regions)/2].ID
			for _, tmpl := range planDifferentialQueries {
				qs := tmpl
				if len(qs) > 0 && containsVerb(qs) {
					qs = fmt.Sprintf(tmpl, pin)
				}
				want, werr := w.evaluator(t, false).EvalString(qs)
				got, gerr := w.evaluator(t, true).EvalString(qs)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: error divergence: written=%v planner=%v", qs, werr, gerr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: planner diverged: %d bindings vs %d", qs, len(got), len(want))
				}
			}
		})
	}
}

func containsVerb(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 's' {
			return true
		}
	}
	return false
}

// TestPlannerOrdersAndPushes pins down the planner's observable decisions on
// the adversarial shape: the bound variable is moved to the front of the
// join order and both pinned-primary relation conditions are pushed into
// the candidate sets before the join.
func TestPlannerOrdersAndPushes(t *testing.T) {
	w := buildPlanWorlds(t)[0] // scatter, tracked
	pin := w.img.Regions[len(w.img.Regions)/2].ID
	ev := w.evaluator(t, true)
	qs := fmt.Sprintf("q(x, y, z) :- pct(x SW y) >= 20, z {N, N:NE, NE} x, z {S, S:SW, SW} y, z = %s", pin)
	res, err := ev.Run(nil, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("planner on but Result.Plan is nil")
	}
	if len(res.Plan.Order) != 3 || res.Plan.Order[0] != "z" {
		t.Errorf("join order = %v, want z first", res.Plan.Order)
	}
	if len(res.Plan.Pushed) != 2 {
		t.Errorf("pushed = %v, want both relation conditions", res.Plan.Pushed)
	}
	if n := res.Plan.Candidates["z"]; n != 1 {
		t.Errorf("candidates[z] = %d, want 1", n)
	}
	if nx, total := res.Plan.Candidates["x"], len(w.img.Regions); nx == 0 || nx >= total {
		t.Errorf("candidates[x] = %d, want pruned below %d but nonzero", nx, total)
	}
}

// TestPlanCacheLifecycle drives the serve-layer usage pattern: one shared
// PlanCache across request-scoped evaluators, with a region edit between
// requests. The second identical request must hit; the post-edit request
// must replan (never serve the stale plan) and still answer correctly.
func TestPlanCacheLifecycle(t *testing.T) {
	w := buildPlanWorlds(t)[0]
	// Regions[10] sits near the world's north-east corner, so the populated
	// directions from it are south-westerly.
	pin := w.img.Regions[10].ID
	qs := fmt.Sprintf("q(x, y) :- y = %s, x {SW, SW:W, S, S:SE, SE, W} y", pin)
	cache := NewPlanCache(8)

	run := func() *Result {
		t.Helper()
		ev := w.evaluator(t, true)
		ev.SetPlanCache(cache)
		res, err := ev.Run(nil, qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Cache != "miss" {
		t.Errorf("first run cache = %q, want miss", first.Cache)
	}
	if len(first.Bindings) == 0 {
		t.Fatal("pre-edit query is empty — the staleness checks below would be vacuous")
	}
	second := run()
	if second.Cache != "hit" {
		t.Errorf("second run cache = %q, want hit", second.Cache)
	}
	// Whitespace-insensitive keying: same query, different layout.
	ev := w.evaluator(t, true)
	ev.SetPlanCache(cache)
	res, err := ev.Run(nil, "q(x,   y) :-\n\ty = "+pin+", x {SW, SW:W, S, S:SE, SE, W} y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" {
		t.Errorf("reformatted query cache = %q, want hit", res.Cache)
	}
	if !reflect.DeepEqual(second.Bindings, first.Bindings) {
		t.Error("cached execution diverged from the cold one")
	}

	// Move the pinned region to the far south-west: the store generation
	// bumps, the cached plan goes stale, the next run must replan against
	// fresh state — and the answer itself flips (nothing is south-west of
	// the new south-westernmost region).
	genBefore := w.tr.Store().Generation()
	moved := w.img.FindRegion(pin).Geometry().Translate(geom.Pt(-500, -500))
	if err := w.tr.SetRegionGeometry(pin, moved); err != nil {
		t.Fatal(err)
	}
	if gen := w.tr.Store().Generation(); gen == genBefore {
		t.Fatal("edit did not bump the store generation")
	}
	third := run()
	if third.Cache != "replan" {
		t.Errorf("post-edit cache = %q, want replan", third.Cache)
	}
	if third.Generation == first.Generation {
		t.Error("post-edit result reports the pre-edit generation")
	}
	// The replanned answer must match written-order evaluation of the fresh
	// state — and, with the pinned region moved 500 units away, differ from
	// the pre-edit answer.
	fresh, err := w.evaluator(t, false).EvalString(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third.Bindings, fresh) {
		t.Error("replanned bindings diverged from fresh written-order evaluation")
	}
	if reflect.DeepEqual(third.Bindings, first.Bindings) {
		t.Error("post-edit bindings identical to pre-edit — stale plan state served?")
	}
	fourth := run()
	if fourth.Cache != "hit" {
		t.Errorf("post-replan cache = %q, want hit", fourth.Cache)
	}
	st := cache.Stats()
	if st.Misses < 1 || st.Hits < 3 || st.Replans < 1 {
		t.Errorf("cache stats = %+v, want ≥1 miss, ≥3 hits, ≥1 replan", st)
	}
}

// TestPlanCacheLRU: the cache holds at most its capacity, evicting the
// least recently used plan.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	for i := 0; i < 4; i++ {
		c.put(&cacheEntry{key: fmt.Sprintf("k%d", i)})
	}
	if n := c.ll.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if _, _, ok := c.get("k0", 0); ok {
		t.Error("k0 should have been evicted")
	}
	if _, _, ok := c.get("k3", 0); !ok {
		t.Error("k3 should be resident")
	}
}

// TestPreparedQuery: one $-parameterised text run many times through the
// plan cache — parsed and planned once, bound per execution.
func TestPreparedQuery(t *testing.T) {
	w := buildPlanWorlds(t)[0]
	ev := w.evaluator(t, true)
	ev.SetPlanCache(NewPlanCache(8))
	const text = "q(x, y) :- y = $ref, x {N, N:NE, NE, E} y, color(x) = $c"
	pin := w.img.Regions[10].ID
	first, err := ev.Run(nil, text, map[string]string{"ref": pin, "c": "c1"})
	if err != nil {
		t.Fatal(err)
	}
	got := first.Bindings
	want, err := w.evaluator(t, false).EvalString(
		fmt.Sprintf("q(x, y) :- y = %s, x {N, N:NE, NE, E} y, color(x) = c1", pin))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prepared bindings diverged: %d vs %d", len(got), len(want))
	}
	// Different parameters, same statement.
	other := w.img.Regions[40].ID
	second, err := ev.Run(nil, text, map[string]string{"ref": other, "c": "c2"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Errorf("cache = %q then %q, want miss then hit", first.Cache, second.Cache)
	}
	got2 := second.Bindings
	want2, err := w.evaluator(t, false).EvalString(
		fmt.Sprintf("q(x, y) :- y = %s, x {N, N:NE, NE, E} y, color(x) = c2", other))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("re-parameterised bindings diverged: %d vs %d", len(got2), len(want2))
	}
	// Unbound parameter is an error, not a silent empty result.
	if _, err := ev.Run(nil, text, map[string]string{"ref": pin}); err == nil {
		t.Error("missing parameter should error")
	}
	if info := second.Plan; len(info.Order) != 2 {
		t.Errorf("prepared plan order = %v", info.Order)
	}
}

// TestPreparedQueryReplansOnEdit: a parameter-free text whose plan and
// execution state are cached across a region edit is replanned instead of
// answered from the stale candidate sets.
func TestPreparedQueryReplansOnEdit(t *testing.T) {
	g := workload.New(11)
	img := &config.Image{Name: "prep-edit"}
	for i, r := range g.Scatter(60, 8) {
		id := fmt.Sprintf("w%04d", i)
		reg := config.Region{ID: id, Name: id}
		reg.SetGeometry(r)
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, core.StoreOptions{Workers: 1, Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	pin := img.Regions[5].ID
	qs := fmt.Sprintf("q(x, y) :- y = %s, x {N, N:NE, NE, E, SE, S:SE, N:NE:E} y", pin)
	ev, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	ev.UseStore(tr.Store())
	ev.SetPlanCache(NewPlanCache(8))
	run := func() *Result {
		t.Helper()
		res, err := ev.Run(nil, qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := run().Bindings
	// Move the pinned region: every x-relation against it changes.
	moved := img.FindRegion(pin).Geometry().Translate(geom.Pt(400, -400))
	if err := tr.SetRegionGeometry(pin, moved); err != nil {
		t.Fatal(err)
	}
	// A fresh evaluator sees the new geometry; the caching evaluator
	// predates the edit but reads relations through the store, so
	// replanning is what keeps its pushed candidate sets honest.
	ev2, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	ev2.UseStore(tr.Store())
	want, err := ev2.EvalString(qs)
	if err != nil {
		t.Fatal(err)
	}
	res := run()
	after := res.Bindings
	if res.Cache != "replan" {
		t.Errorf("post-edit cache = %q, want replan", res.Cache)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("post-edit prepared bindings diverged from fresh evaluation: %d vs %d", len(after), len(want))
	}
	if reflect.DeepEqual(after, before) && len(before) > 0 {
		t.Error("post-edit bindings identical to pre-edit — stale execution state served")
	}
}

// TestParseParams: $-parameters parse in bind and attribute positions and
// round-trip through String; a bare $ is rejected.
func TestParseParams(t *testing.T) {
	q, err := Parse("q(x) :- x = $start, color(x) = $c")
	if err != nil {
		t.Fatal(err)
	}
	if !q.hasParams() {
		t.Error("hasParams() = false")
	}
	if _, err := Parse("q(x) :- x = $"); err == nil {
		t.Error("bare $ should be a parse error")
	}
	if _, err := Parse("q(x) :- x $N y"); err == nil {
		t.Error("$ in relation position should be a parse error")
	}
	rq, err := q.resolve(map[string]string{"start": "attica", "c": "red"})
	if err != nil {
		t.Fatal(err)
	}
	if rq.Conds[0].(BindCond).RegionID != "attica" || rq.Conds[1].(AttrCond).Value != "red" {
		t.Errorf("resolve produced %v", rq.Conds)
	}
	if _, err := q.resolve(nil); err == nil {
		t.Error("resolving with no args should error")
	}
}

// TestIntersectSorted: the sorted-merge intersection against a brute-force
// reference on edge cases and random inputs.
func TestIntersectSorted(t *testing.T) {
	cases := [][2][]string{
		{nil, nil},
		{{"a"}, nil},
		{nil, {"a"}},
		{{"a", "b", "c"}, {"a", "b", "c"}},
		{{"a", "c", "e"}, {"b", "d", "f"}},
		{{"a", "b", "c", "d"}, {"b", "d"}},
		{{"b", "d"}, {"a", "b", "c", "d", "e"}},
	}
	ref := func(a, b []string) []string {
		in := map[string]bool{}
		for _, s := range b {
			in[s] = true
		}
		var out []string
		for _, s := range a {
			if in[s] {
				out = append(out, s)
			}
		}
		return out
	}
	for _, c := range cases {
		got := intersectSorted(c[0], c[1])
		want := ref(c[0], c[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("intersectSorted(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

// BenchmarkIntersectSorted documents why the map-based intersection was
// replaced: the sorted merge allocates one output slice and nothing else.
// (The candidate lists it runs on are sorted by construction — buildCandidates
// iterates ids in sorted order.)
func BenchmarkIntersectSorted(b *testing.B) {
	a := make([]string, 1000)
	c := make([]string, 1000)
	for i := range a {
		a[i] = fmt.Sprintf("r%06d", i)
		c[i] = fmt.Sprintf("r%06d", i+500)
	}
	sort.Strings(a)
	sort.Strings(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := intersectSorted(a, c); len(out) != 500 {
			b.Fatalf("len = %d", len(out))
		}
	}
}

// FuzzPlannerDifferential: any parseable query over the Greece fixture must
// bind identically with the planner on and off, and error states must
// agree. Variable and condition counts are capped to keep the join small.
func FuzzPlannerDifferential(f *testing.F) {
	for _, seed := range []string{
		"q(x, y) :- x {N, N:NE, NE} y",
		"q(x, y) :- y = peloponnesos, x {N, NE, E} y",
		"q(x, y) :- x = attica, not x {S, SW} y",
		"q(x, y) :- pct(x B y) > 0, color(x) = red",
		"q(x, y, z) :- x {W, W:NW, SW} y, y {S, S:SW, S:SE} z, z = attica",
		"q(x) :- x B x",
		"q(x, y) :- pct(x NE y) >= 50, y = crete",
	} {
		f.Add(seed)
	}
	img := config.Greece()
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		if len(q.Vars) > 3 || len(q.Conds) > 6 || q.hasParams() {
			return
		}
		mk := func(planner bool) *Evaluator {
			ev, err := NewEvaluator(img)
			if err != nil {
				t.Fatal(err)
			}
			ev.SetPlanner(planner)
			return ev
		}
		want, werr := mk(false).Eval(q)
		got, gerr := mk(true).Eval(q)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: error divergence: written=%v planner=%v", s, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: planner diverged: %v vs %v", s, got, want)
		}
	})
}
