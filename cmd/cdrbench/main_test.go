package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cardirect/internal/experiments"
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

// TestOnlySelectsEveryExperimentID checks, without running anything, that
// each experiment id, also one inside a range entry such as E5 of E4-E5,
// selects exactly the entry that runs it, and so does the entry's own id.
func TestOnlySelectsEveryExperimentID(t *testing.T) {
	entries := experiments.Entries(experiments.Options{})
	for _, e := range entries {
		ids := []string{e.ID}
		if lo, hi, ok := strings.Cut(e.ID, "-"); ok {
			a, _ := strconv.Atoi(strings.TrimPrefix(lo, "E"))
			b, _ := strconv.Atoi(strings.TrimPrefix(hi, "E"))
			if a >= b {
				t.Fatalf("entry %s is not a range", e.ID)
			}
			for n := a; n <= b; n++ {
				ids = append(ids, "E"+strconv.Itoa(n))
			}
		}
		for _, id := range ids {
			got := selectEntries(entries, id)
			if len(got) != 1 || got[0].ID != e.ID {
				var names []string
				for _, g := range got {
					names = append(names, g.ID)
				}
				t.Errorf("-only %s selects %v, want [%s]", id, names, e.ID)
			}
		}
	}
	if got := selectEntries(entries, "e5"); len(got) != 1 || got[0].ID != "E4-E5" {
		t.Errorf("-only e5 does not select E4-E5")
	}
	for _, id := range []string{"E21", "E99", "E", "E4-", "x"} {
		if got := selectEntries(entries, id); len(got) != 0 {
			t.Errorf("-only %s selects %d entries, want none", id, len(got))
		}
	}
}
