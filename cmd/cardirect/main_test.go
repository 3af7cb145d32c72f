package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives the command with the given args and stdin, returning stdout.
func runCLI(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

// greeceXML produces the Fig. 11 configuration document once per test.
func greeceXML(t *testing.T) string {
	t.Helper()
	out, err := runCLI(t, "", "greece")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCLINoArgs(t *testing.T) {
	if _, err := runCLI(t, ""); err == nil {
		t.Error("missing subcommand should fail")
	}
	if _, err := runCLI(t, "", "frobnicate"); err == nil {
		t.Error("unknown subcommand should fail")
	}
}

func TestCLIGreeceValidateRoundtrip(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "validate")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OK: 11 region(s)") {
		t.Errorf("validate output: %q", out)
	}
}

func TestCLICompute(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "compute", "-pct")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `primary="peloponnesos"`) || !strings.Contains(out, "pct=") {
		t.Errorf("compute output missing relations/pct")
	}
	// Recheck validity through the validate subcommand.
	check, err := runCLI(t, out, "validate")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(check, "110 relation(s)") {
		t.Errorf("validate after compute: %q", check)
	}
}

func TestCLIQuery(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "query",
		"q(a, b) :- color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 answer(s)") || !strings.Contains(out, "a=peloponnesos, b=pylos") {
		t.Errorf("query output: %q", out)
	}
	// Malformed query errors.
	if _, err := runCLI(t, xml, "query", "q() :-"); err == nil {
		t.Error("malformed query should fail")
	}
	if _, err := runCLI(t, xml, "query"); err == nil {
		t.Error("missing query argument should fail")
	}
}

// TestStaleMaterialisedRelationsIgnored: `cardirect query` answers from the
// regions' geometry, as the daemon does, not from Relation elements the
// document happens to carry.
func TestStaleMaterialisedRelationsIgnored(t *testing.T) {
	computed, err := runCLI(t, greeceXML(t), "compute")
	if err != nil {
		t.Fatal(err)
	}
	fresh := `<Relation type="B:S:SW:W" primary="peloponnesos" reference="attica">`
	if !strings.Contains(computed, fresh) {
		t.Fatalf("compute did not emit %s", fresh)
	}
	stale := strings.Replace(computed, fresh, `<Relation type="N" primary="peloponnesos" reference="attica">`, 1)
	for qs, want := range map[string]string{
		"q(a, b) :- a = peloponnesos, b = attica, a B:S:SW:W b": "1 answer(s)",
		"q(a, b) :- a = peloponnesos, b = attica, a N b":        "0 answer(s)",
	} {
		out, err := runCLI(t, stale, "query", qs)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s over a document claiming N: %q, want %s", qs, out, want)
		}
	}
}

func TestCLIDescribe(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "describe")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Hellas", "attica", "peloponnesos", "relation "} {
		if !strings.Contains(out, frag) {
			t.Errorf("describe output missing %q", frag)
		}
	}
}

func TestCLIRelation(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "relation", "-pct", "peloponnesos", "attica")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "peloponnesos B:S:SW:W attica") {
		t.Errorf("relation output: %q", out)
	}
	if !strings.Contains(out, "%") {
		t.Error("missing percentage matrix")
	}
	if _, err := runCLI(t, xml, "relation", "nope", "attica"); err == nil {
		t.Error("unknown region should fail")
	}
	if _, err := runCLI(t, xml, "relation", "attica"); err == nil {
		t.Error("missing argument should fail")
	}
}

func TestCLIInverseCompose(t *testing.T) {
	out, err := runCLI(t, "", "inverse", "S")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NW:NE") || !strings.Contains(out, "5 relation(s)") {
		t.Errorf("inverse output: %q", out)
	}
	out, err = runCLI(t, "", "compose", "SW", "SW")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "= SW") {
		t.Errorf("compose output: %q", out)
	}
	if _, err := runCLI(t, "", "inverse", "X:Y"); err == nil {
		t.Error("bad relation should fail")
	}
	if _, err := runCLI(t, "", "compose", "S"); err == nil {
		t.Error("missing operand should fail")
	}
	if _, err := runCLI(t, "", "compose", "S", "Q"); err == nil {
		t.Error("bad second operand should fail")
	}
}

func TestCLIFileIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hellas.xml")
	if _, err := runCLI(t, "", "greece", "-out", path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "", "validate", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OK") {
		t.Errorf("validate -in: %q", out)
	}
	if _, err := runCLI(t, "", "validate", "-in", filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing input file should fail")
	}
}

func TestCLIGarbageInput(t *testing.T) {
	if _, err := runCLI(t, "<<<not xml", "validate"); err == nil {
		t.Error("garbage stdin should fail")
	}
	if _, err := runCLI(t, "<<<not xml", "compute"); err == nil {
		t.Error("garbage stdin should fail compute")
	}
}

func TestCLITopo(t *testing.T) {
	xml := greeceXML(t)
	out, err := runCLI(t, xml, "topo", "peloponnesos", "attica")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"B:S:SW:W", "EC", "touch"} {
		if !strings.Contains(out, frag) {
			t.Errorf("topo output missing %q: %q", frag, out)
		}
	}
	out, err = runCLI(t, xml, "topo", "peloponnesos", "pylos")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DC") {
		t.Errorf("pylos should be DC of peloponnesos: %q", out)
	}
	if _, err := runCLI(t, xml, "topo", "nope", "attica"); err == nil {
		t.Error("unknown region should fail")
	}
	if _, err := runCLI(t, xml, "topo", "attica"); err == nil {
		t.Error("missing argument should fail")
	}
}
