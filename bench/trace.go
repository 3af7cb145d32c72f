package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share req; parent is the id of the span that caused this one (-1 for the
// operation's root). The program itself carries no spans yet, so the only
// real nesting is what the harness wraps; the calls a handler makes into
// the layers below it are timed by issuing the same call directly on a
// shadow instance and are recorded as shadow spans, laid out inside their
// parent so that interval arithmetic and trace viewers treat them alike.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Shadow  bool   `json:"shadow,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// layerOf is the package a span's name starts with: "core.RelationStore.
// Relation" belongs to layer core.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing and costs a branch: the untraced pass uses one, and the
// difference between the passes is the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, StartNs: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t.on {
		t.spans[id].EndNs = t.now()
	}
}

// call is one directly timed call into a layer, with the calls it in turn
// stands for nested inside it.
type call struct {
	name     string
	ns       int64
	children []call
}

// shadow records a tree of directly timed calls as spans laid out inside
// the parent span, one after the other from the parent's start.
func (t *tracer) shadow(parent, req int, calls []call) {
	if !t.on {
		return
	}
	t.layout(parent, req, t.spans[parent].StartNs, calls)
}

func (t *tracer) layout(parent, req int, at int64, calls []call) {
	for _, c := range calls {
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: c.name, StartNs: at, EndNs: at + c.ns, Shadow: true})
		t.layout(id, req, at, c.children)
		at += c.ns
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once, and
// a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].StartNs < spans[kids[j]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Unit     string `json:"unit"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Unit: "ns since the trace began", Spans: spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// budget is the layer budget of one operation class: the median root span,
// and per layer the median over the class's operations of that layer's
// summed self time.
type budget struct {
	class   string
	n       int
	rootUs  float64
	layerUs map[string]float64
}

// budgets groups root spans by name (one name per operation class) and
// attributes every span's self time to its layer.
func budgets(spans []span) []budget {
	self := selfTimes(spans)
	type acc struct {
		root   []float64
		layers map[string][]float64
	}
	byClass := map[string]*acc{}
	perReq := map[int]map[string]float64{}
	rootOf := map[int]span{}
	for _, s := range spans {
		if s.Parent < 0 {
			rootOf[s.Req] = s
		}
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]float64{}
		}
		perReq[s.Req][layerOf(s.Name)] += float64(self[s.ID]) / 1e3
	}
	for req, root := range rootOf {
		a := byClass[root.Name]
		if a == nil {
			a = &acc{layers: map[string][]float64{}}
			byClass[root.Name] = a
		}
		a.root = append(a.root, float64(root.dur())/1e3)
		for layer, us := range perReq[req] {
			a.layers[layer] = append(a.layers[layer], us)
		}
	}
	var out []budget
	for class, a := range byClass {
		b := budget{class: class, n: len(a.root), rootUs: median(a.root), layerUs: map[string]float64{}}
		for layer, vs := range a.layers {
			// An operation that never entered a layer spent nothing there.
			for len(vs) < len(a.root) {
				vs = append(vs, 0)
			}
			b.layerUs[layer] = median(vs)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// layerShares is each layer's share of all self time in the trace: where
// the traced time of this workload went.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	total := 0.0
	by := map[string]float64{}
	for _, s := range spans {
		by[layerOf(s.Name)] += float64(self[s.ID])
		total += float64(self[s.ID])
	}
	for l := range by {
		by[l] /= total
	}
	return by
}

// formatBudgets renders the layer budget table.
func formatBudgets(bs []budget, layers []string) []string {
	head := fmt.Sprintf("%-28s %6s %10s", "class (median us)", "n", "root")
	for _, l := range layers {
		head += fmt.Sprintf(" %9s", l)
	}
	lines := []string{head}
	for _, b := range bs {
		line := fmt.Sprintf("%-28s %6d %10.1f", b.class, b.n, b.rootUs)
		for _, l := range layers {
			line += fmt.Sprintf(" %9.1f", b.layerUs[l])
		}
		lines = append(lines, line)
	}
	return lines
}
