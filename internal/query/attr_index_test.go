package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/geom"
)

// attrWorld builds a configuration with a known color distribution: region
// ids a00..a<n-1>, colors cycling through red/green/blue.
func attrWorld(t *testing.T, n int) *config.Image {
	t.Helper()
	img := &config.Image{Name: "attr-index"}
	colors := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		cx, cy := float64(i%8)*10, float64(i/8)*10
		id := fmt.Sprintf("a%02d", i)
		reg := config.Region{ID: id, Name: id, Color: colors[i%len(colors)]}
		reg.SetGeometry(geom.Rgn(geom.Polygon{
			geom.Pt(cx, cy), geom.Pt(cx+4, cy), geom.Pt(cx+4, cy+4), geom.Pt(cx, cy+4),
		}.Clockwise()))
		img.Regions = append(img.Regions, reg)
	}
	return img
}

// TestAttrIndexMatchesScan checks the secondary attribute index against a
// direct accessor scan: every bucket holds exactly the sorted ids whose
// accessor returns the bucket value, and buildCandidates produces the same
// candidate sets — positive and negated — as the per-region scan it
// replaced.
func TestAttrIndexMatchesScan(t *testing.T) {
	img := attrWorld(t, 20)
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.attrIndex("color")
	for val, ids := range idx {
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Errorf("bucket %q not sorted: %v", val, ids)
			}
		}
	}
	for _, id := range e.snap.ids {
		want := e.snap.regs[id].Color
		found := false
		for _, got := range idx[want] {
			if got == id {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("region %s (color %s) missing from its bucket", id, want)
		}
	}
	// Candidate sets through the index vs a reference scan.
	for _, tc := range []struct {
		q       string
		color   string
		negated bool
	}{
		{"q(x) :- color(x) = red", "red", false},
		{"q(x) :- color(x) != red", "red", true},
		{"q(x) :- color(x) = green", "green", false},
		{"q(x) :- color(x) = mauve", "mauve", false}, // absent value: empty set
		{"q(x) :- color(x) != mauve", "mauve", true}, // absent value: everything
	} {
		q, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := e.buildCandidates(q)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, id := range e.snap.ids {
			if (e.snap.regs[id].Color == tc.color) != tc.negated {
				want = append(want, id)
			}
		}
		if !reflect.DeepEqual(cand["x"], want) {
			t.Errorf("%s: candidates = %v, want %v", tc.q, cand["x"], want)
		}
	}
}

// TestAttrIndexRegisterInvalidates checks that re-registering an attribute
// accessor drops the memoised index so the new accessor takes effect.
func TestAttrIndexRegisterInvalidates(t *testing.T) {
	img := attrWorld(t, 6)
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterAttr("zone", func(r *config.Region) string { return "east" })
	if got := len(e.attrIndex("zone")["east"]); got != 6 {
		t.Fatalf("zone=east bucket = %d ids, want 6", got)
	}
	e.RegisterAttr("zone", func(r *config.Region) string { return "west" })
	if got := len(e.attrIndex("zone")["east"]); got != 0 {
		t.Errorf("stale index survived re-registration: zone=east holds %d ids", got)
	}
	if got := len(e.attrIndex("zone")["west"]); got != 6 {
		t.Errorf("zone=west bucket = %d ids, want 6", got)
	}
}

// TestRegisterAttrStaysOnTheShell: evaluators sharing one snapshot do not see
// each other's RegisterAttr — including an override of a built-in, which
// must not touch the snapshot's own index.
func TestRegisterAttrStaysOnTheShell(t *testing.T) {
	snap := NewSnapshot(attrWorld(t, 6))
	a, b := snap.Evaluator(), snap.Evaluator()
	if got := len(a.attrIndex("color")["red"]); got != 2 {
		t.Fatalf("color=red bucket = %d ids, want 2", got)
	}
	a.RegisterAttr("zone", func(r *config.Region) string { return "east" })
	a.RegisterAttr("color", func(r *config.Region) string { return "red" })
	if got := len(a.attrIndex("color")["red"]); got != 6 {
		t.Errorf("overridden color=red bucket = %d ids, want 6", got)
	}
	if b.attrIndex("zone") != nil {
		t.Error("RegisterAttr leaked through the shared snapshot")
	}
	if got := len(b.attrIndex("color")["red"]); got != 2 {
		t.Errorf("sibling evaluator sees the color override: red bucket = %d ids, want 2", got)
	}
	if _, err := b.EvalString("q(x) :- zone(x) = east"); err == nil {
		t.Error("sibling evaluator accepts an attribute it never registered")
	}
}

// TestAttrIndexQueryEquivalence runs attribute-heavy queries — positive,
// negated, and mixed with relation conditions — through the planner (which
// counts selectivity and filters candidates via the index) and written-order
// evaluation, and demands identical bindings.
func TestAttrIndexQueryEquivalence(t *testing.T) {
	img := attrWorld(t, 24)
	for _, qs := range []string{
		"q(x) :- color(x) = red",
		"q(x) :- color(x) != red",
		"q(x, y) :- color(x) = red, color(y) = blue, x {NW, N, N:NW} y",
		"q(x, y) :- color(x) != green, color(y) = green, not x {S, S:SW} y, y = a04",
	} {
		ep, err := NewEvaluator(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := func() ([]Binding, error) {
			ep.SetPlanner(false)
			return ep.EvalString(qs)
		}()
		if err != nil {
			t.Fatalf("%s (written order): %v", qs, err)
		}
		ep.SetPlanner(true)
		got, err := ep.EvalString(qs)
		if err != nil {
			t.Fatalf("%s (planner): %v", qs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: planner %v, written order %v", qs, got, want)
		}
		if strings.Contains(qs, "= red") && len(want) == 0 {
			t.Errorf("%s: no bindings — equivalence is vacuous", qs)
		}
	}
}

func TestSubtractSorted(t *testing.T) {
	for _, tc := range []struct{ a, b, want []string }{
		{[]string{"a", "b", "c"}, []string{"b"}, []string{"a", "c"}},
		{[]string{"a", "b"}, nil, []string{"a", "b"}},
		{nil, []string{"a"}, nil},
		{[]string{"a", "b"}, []string{"a", "b"}, nil},
		{[]string{"b", "d"}, []string{"a", "c", "e"}, []string{"b", "d"}},
	} {
		if got := subtractSorted(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("subtractSorted(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
