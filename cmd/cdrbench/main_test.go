package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestOnlySelectsOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E9"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== E9:") {
		t.Errorf("missing E9 header: %q", s)
	}
	if strings.Contains(s, "== E10:") || strings.Contains(s, "== E1-E3:") {
		t.Error("-only ran other experiments")
	}
	if !strings.Contains(s, "B:S:SW:W") {
		t.Error("E9 body missing the Fig. 12 relation")
	}
}

func TestOnlyCaseInsensitive(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "e1-e3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig3c triangle") {
		t.Errorf("E1-E3 body missing: %q", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E99"}, &out); err == nil {
		t.Error("unknown experiment id should fail")
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag should fail")
	}
}
