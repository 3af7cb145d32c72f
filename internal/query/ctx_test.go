package query

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/workload"
)

// TestEvalCtxCancelled: a cancelled context aborts the join before binding
// enumeration and surfaces context.Canceled; the ctx-free Eval stays live.
func TestEvalCtxCancelled(t *testing.T) {
	ev, err := NewEvaluator(config.Greece())
	if err != nil {
		t.Fatal(err)
	}
	const q = "q(x, y) :- x N:NE y"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.EvalStringCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalStringCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	// Sanity: the same query evaluates fine without cancellation, and
	// EvalCtx with a live context matches Eval.
	want, err := ev.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.EvalCtx(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("EvalCtx = %d bindings, Eval = %d", len(got), len(want))
	}
	for i := range got {
		for v, id := range got[i] {
			if want[i][v] != id {
				t.Fatalf("binding %d: %s = %s, want %s", i, v, id, want[i][v])
			}
		}
	}
}

// countingCtx counts Err calls and reports context.Canceled from the
// cancelAt-th one on (never, when cancelAt is 0).
type countingCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPushdownPollsContextPerStride: a pinned query over a large world polls
// its context once per 256 candidates of the pushed condition, not once per
// candidate, and still stops promptly: before any kernel when it arrives
// cancelled, within one stride when it is cancelled on the way.
func TestPushdownPollsContextPerStride(t *testing.T) {
	const n, stride = 4200, 256
	// One pinned box, three boxes north of it, the rest tiling the south.
	img := &config.Image{Name: "ctx"}
	for i := 0; i < n; i++ {
		x, y, side := float64(i%64)*3-90, -10-float64(i/64)*3, 2.0
		switch {
		case i == 0:
			x, y, side = 0, 0, 10
		case i <= 3:
			x, y = 2*float64(i), 10+3*float64(i)
		}
		id := fmt.Sprintf("w%04d", i)
		reg := config.Region{ID: id, Name: id}
		reg.SetGeometry(workload.BoxRegion(x, y, x+side, y+side))
		img.Regions = append(img.Regions, reg)
	}
	tr, err := config.Track(img, core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	g := NewEngine(4)
	run := func(cancelAt int) (polls, pairs int, err error) {
		ctx := &countingCtx{Context: context.Background(), cancelAt: cancelAt}
		before := tr.Store().Stats().Passes
		res, _, err := g.Run(ctx, tr, "q(x, y) :- y = $ref, x {N} y", map[string]string{"ref": "w0000"})
		if err == nil && (len(res.Bindings) != 3 || len(res.Plan.Pushed) != 1) {
			t.Fatalf("%d bindings, pushed %v: want 3 through one pushed condition", len(res.Bindings), res.Plan.Pushed)
		}
		return ctx.polls, tr.Store().Stats().Passes - before, err
	}
	if _, _, err := run(0); err != nil { // plans: the selectivity probe is its own row
		t.Fatal(err)
	}
	// Live and planned: ⌈n/stride⌉ polls for the row, a handful for the join
	// (one per bound candidate: the pin, then the three answers).
	polls, pairs, err := run(0)
	if err != nil || pairs != n-1 || polls > (n+stride-1)/stride+8 {
		t.Errorf("live: %d polls over %d pairs (err %v), want at most %d over %d", polls, pairs, err, (n+stride-1)/stride+8, n-1)
	}
	if _, pairs, err := run(1); !errors.Is(err, context.Canceled) || pairs != 0 {
		t.Errorf("already cancelled: %d pairs, err %v; want context.Canceled before any kernel", pairs, err)
	}
	// The 4th poll opens the 4th stride; the pin sits in the first.
	if _, pairs, err := run(4); !errors.Is(err, context.Canceled) || pairs != 3*stride-1 {
		t.Errorf("cancelled at the 4th poll: %d pairs, err %v; want a stop after %d", pairs, err, 3*stride-1)
	}
}

// TestPlanProbeHonoursContext: planning a pinned relation condition probes
// its selectivity through a store row, and that row runs under the request
// context — a cancelled query fails with the context's error before any
// kernel pair runs, instead of planning from a full row first.
func TestPlanProbeHonoursContext(t *testing.T) {
	img := config.Greece()
	store, err := trackStore(t, img)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(img)
	if err != nil {
		t.Fatal(err)
	}
	ev.UseStore(store)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := store.Stats().Passes
	if _, err := ev.Run(ctx, "q(x, y) :- y = peloponnesos, x {N, NE, E} y", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if pairs := store.Stats().Passes - before; pairs != 0 {
		t.Errorf("cancelled query ran %d kernel pairs, want 0", pairs)
	}
}
