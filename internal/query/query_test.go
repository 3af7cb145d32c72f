package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
)

func TestLexer(t *testing.T) {
	toks, err := lex("q(x, y) :- color(x) = red, x S:SW {N} y")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokenKind{
		tokIdent, tokLParen, tokIdent, tokComma, tokIdent, tokRParen, tokTurnstile,
		tokIdent, tokLParen, tokIdent, tokRParen, tokEquals, tokIdent, tokComma,
		tokIdent, tokIdent, tokColon, tokIdent, tokLBrace, tokIdent, tokRBrace, tokIdent,
		tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if _, err := lex("q(x) :- x $ y"); err == nil {
		t.Error("invalid character should fail lexing")
	}
}

func TestParseWellFormed(t *testing.T) {
	q, err := Parse("q(a, b) :- color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "a" || q.Vars[1] != "b" {
		t.Errorf("vars = %v", q.Vars)
	}
	if len(q.Conds) != 3 {
		t.Fatalf("conds = %d", len(q.Conds))
	}
	rc, ok := q.Conds[2].(RelCond)
	if !ok {
		t.Fatalf("third condition is %T", q.Conds[2])
	}
	want, _ := core.ParseRelation("S:SW:W:NW:N:NE:E:SE")
	if !rc.Rels.Contains(want) || rc.Rels.Len() != 1 {
		t.Errorf("relation = %v", rc.Rels)
	}
	// Roundtrip through String and Parse again.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("roundtrip: %q vs %q", q2.String(), q.String())
	}
}

func TestParseDisjunctiveRelation(t *testing.T) {
	q, err := Parse("q(x, y) :- x {N, NW:N, N:NE} y")
	if err != nil {
		t.Fatal(err)
	}
	rc := q.Conds[0].(RelCond)
	if rc.Rels.Len() != 3 {
		t.Errorf("disjuncts = %d", rc.Rels.Len())
	}
	if !rc.Rels.Contains(core.N) {
		t.Error("missing N")
	}
}

func TestParseBinding(t *testing.T) {
	q, err := Parse("q(x) :- x = attica")
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := q.Conds[0].(BindCond)
	if !ok || bc.RegionID != "attica" {
		t.Errorf("cond = %v", q.Conds[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q() :- x = a",
		"q(x, x) :- x = a",                // duplicate head var
		"q(x) :- y = a",                   // unknown var
		"q(x) :-",                         // no conditions
		"q(x, y) :- x Z y",                // bad tile
		"q(x, y) :- x S:S y",              // duplicate tile
		"q(x) :- x S x",                   // self relation
		"q(x, y) :- x {S, } y",            // dangling comma
		"q(x y) :- x = a",                 // missing comma
		"q(x) : - x = a",                  // broken turnstile
		"q(x, y) :- color(x = red, x S y", // broken parens
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestEvalPaperQuery(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §4 example: regions of the Athenean Alliance (blue)
	// surrounded by a region of the Spartan Alliance (red). (The paper
	// prints the colors swapped relative to its prose; the intended
	// surrounded-by reading is a red surrounder and a blue surroundee.)
	got, err := e.EvalString(
		"q(a, b) :- color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("answers = %v, want exactly the Pylos pair", got)
	}
	if got[0]["a"] != "peloponnesos" || got[0]["b"] != "pylos" {
		t.Errorf("answer = %v", got[0])
	}
}

func TestEvalBindingAndAttr(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalString("q(x, y) :- x = peloponnesos, y = attica, x B:S:SW:W y")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Fig 12 relation should hold: %v", got)
	}
	// All red regions.
	reds, err := e.EvalString("q(x, y) :- color(x) = red, color(y) = red, x = peloponnesos, y = peloponnesos")
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 1 {
		t.Fatalf("self pair: %v", reds)
	}
	// Unknown attribute and unknown region produce errors.
	if _, err := e.EvalString("q(x) :- taste(x) = sweet"); err == nil {
		t.Error("unknown attribute should error")
	}
	if _, err := e.EvalString("q(x) :- x = atlantis"); err == nil {
		t.Error("unknown region should error")
	}
}

func TestEvalDisjunctive(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	// Regions strictly north-ish of Attica: either N or NW:N etc.
	got, err := e.EvalString("q(x, y) :- y = attica, x {N, NW:N, N:NE, NW:N:NE, NW, NE} y")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, b := range got {
		found[b["x"]] = true
	}
	if !found["macedonia"] {
		t.Errorf("Macedonia should be north of Attica: %v", got)
	}
	if found["crete"] {
		t.Error("Crete is south of Attica")
	}
}

func TestEvalSameVariableRegions(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	// x B x holds for every region (a region is B of itself).
	got, err := e.EvalString("q(x, y) :- x = attica, y = attica, x B y")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("x B x should hold for attica: %v", got)
	}
	// But x N x never holds.
	none, err := e.EvalString("q(x, y) :- x = attica, y = attica, x N y")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("x N x must be empty: %v", none)
	}
}

func TestEvalDeterministicOrder(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	q := "q(x) :- color(x) = blue"
	a, err := e.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("blue regions: %v vs %v", a, b)
	}
	for i := range a {
		if a[i]["x"] != b[i]["x"] {
			t.Errorf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Lexicographic order.
	for i := 1; i < len(a); i++ {
		if a[i-1]["x"] >= a[i]["x"] {
			t.Errorf("not sorted: %v", a)
		}
	}
}

// TestEvalRelationFromGeometry: on a document that carries computed Relation
// elements the evaluator still reads its own store, and the two agree — the
// paper's Fig. 12 pair included.
func TestEvalRelationFromGeometry(t *testing.T) {
	img := config.Greece()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range img.Relations {
		r, err := e.Relation(entry.Primary, entry.Reference)
		if err != nil {
			t.Fatal(err)
		}
		if r.String() != entry.Type {
			t.Errorf("%s vs %s: evaluator %v, computed document %s", entry.Primary, entry.Reference, r, entry.Type)
		}
	}
	if r, _ := e.Relation("peloponnesos", "attica"); r.String() != "B:S:SW:W" {
		t.Errorf("peloponnesos vs attica = %v, want B:S:SW:W (Fig. 12)", r)
	}
}

// staleGreece returns the Greece fixture with a Relation element for every
// ordered pair, each one wrong: NE where the geometry says anything else, SW
// where it says NE.
func staleGreece(t *testing.T) *config.Image {
	t.Helper()
	img := config.Greece()
	if err := img.ComputeRelations(false); err != nil {
		t.Fatal(err)
	}
	for i := range img.Relations {
		if img.Relations[i].Type == "NE" {
			img.Relations[i].Type = "SW"
		} else {
			img.Relations[i].Type = "NE"
		}
	}
	return img
}

// TestStaleMaterialisedRelationsIgnored: a document whose Relation elements
// contradict its geometry is answered from geometry — by an evaluator with a
// store attached and by one left to build its own, planner on and off,
// through the join, the pushdown and the single read.
func TestStaleMaterialisedRelationsIgnored(t *testing.T) {
	img := staleGreece(t)
	ne := func(p, q string) bool {
		rel, err := core.ComputeCDR(img.FindRegion(p).Geometry(), img.FindRegion(q).Geometry())
		if err != nil {
			t.Fatal(err)
		}
		return rel == core.NE
	}
	var wantAll, wantPinned []Binding
	for _, x := range img.Regions {
		for _, y := range img.Regions {
			if x.ID != y.ID && ne(x.ID, y.ID) {
				wantAll = append(wantAll, Binding{"x": x.ID, "y": y.ID})
				if y.ID == "pylos" {
					wantPinned = append(wantPinned, Binding{"x": x.ID, "y": y.ID})
				}
			}
		}
	}
	sortBindings(wantAll, []string{"x", "y"})
	sortBindings(wantPinned, []string{"x", "y"})
	if len(wantPinned) == 0 || len(wantAll) == len(img.Relations) {
		t.Fatalf("fixture: %d of %d pairs are NE, %d against pylos", len(wantAll), len(img.Relations), len(wantPinned))
	}
	store, err := trackStore(t, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, attached := range []*core.RelationStore{nil, store} {
		for _, planner := range []bool{true, false} {
			ev, err := NewEvaluator(img)
			if err != nil {
				t.Fatal(err)
			}
			ev.UseStore(attached)
			ev.SetPlanner(planner)
			name := fmt.Sprintf("store attached %v, planner %v", attached != nil, planner)
			for qs, want := range map[string][]Binding{
				"q(x, y) :- x NE y":            wantAll,
				"q(x, y) :- y = pylos, x NE y": wantPinned,
			} {
				got, err := ev.EvalString(qs)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, qs, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s answered %d bindings %v, geometry says %v", name, qs, len(got), got[:min(len(got), 3)], want)
				}
			}
			if rel, err := ev.Relation("peloponnesos", "attica"); err != nil || rel.String() != "B:S:SW:W" {
				t.Errorf("%s: peloponnesos vs attica = %v (%v), geometry says B:S:SW:W", name, rel, err)
			}
		}
	}
}

func TestRegisterAttr(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterAttr("alliance", func(r *config.Region) string {
		switch r.Color {
		case "blue":
			return "athens"
		case "red":
			return "sparta"
		default:
			return "other"
		}
	})
	got, err := e.EvalString("q(x) :- alliance(x) = other")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["x"] != "macedonia" {
		t.Errorf("alliance=other → %v", got)
	}
}

func TestQueryStringContainsConditions(t *testing.T) {
	q, err := Parse("q(a, b) :- color(a) = red, a {N, S} b")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	// RelationSet renders members in canonical bitmask order (S before N).
	for _, frag := range []string{"q(a, b)", "color(a) = red", "a {S, N} b"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestEvalThreeVariableJoin(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	// Chains: x north-ish of y, y north-ish of z, all distinct colors
	// pinned to make the answer small and checkable.
	got, err := e.EvalString(
		"q(x, y, z) :- z = crete, y = peloponnesos, x {NW:N, N, N:NE, NE, NW} y, y {NW:N, N, N:NE} z")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, b := range got {
		found[b["x"]] = true
		if b["y"] != "peloponnesos" || b["z"] != "crete" {
			t.Errorf("pinned variables wrong: %v", b)
		}
	}
	// Beotia and Macedonia are both north-ish of the Peloponnesos, which is
	// north-ish of Crete.
	if !found["macedonia"] {
		t.Errorf("macedonia missing from 3-var join: %v", got)
	}
	if found["crete"] || found["sicily"] {
		t.Errorf("southern regions must not appear: %v", got)
	}
}

func TestEvalCartesianWithoutRelations(t *testing.T) {
	img := config.Greece()
	e, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	// Attribute-only conditions produce the full cross product of the
	// matching candidate sets.
	got, err := e.EvalString("q(x, y) :- color(x) = red, color(y) = black")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // 4 red × 1 black
		t.Errorf("cross product = %d, want 4", len(got))
	}
}
