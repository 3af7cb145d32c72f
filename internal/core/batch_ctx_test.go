package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cardirect/internal/workload"
)

// scatterRegions builds a deterministic named batch workload.
func scatterRegions(t testing.TB, seed int64, n int) []NamedRegion {
	t.Helper()
	scattered := workload.New(seed).Scatter(n, 8)
	regions := make([]NamedRegion, len(scattered))
	for i, r := range scattered {
		regions[i] = NamedRegion{Name: fmt.Sprintf("r%04d", i), Region: r}
	}
	return regions
}

// TestBatchCDRCancelled: a pre-cancelled context aborts the batch before
// (or within one row of) any work, surfacing context.Canceled via errors.Is.
func TestBatchCDRCancelled(t *testing.T) {
	regions := scatterRegions(t, 7, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := BatchCDR(ctx, regions, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchCDR on cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The engine may prepare regions before noticing, but must not run the
	// all-pairs sweep; a generous wall-clock bound catches a missing check
	// without being timing-flaky.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled batch took %v", d)
	}
	if _, err := BatchPct(ctx, regions, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchPct on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestBatchCDRDeadline: an already-expired deadline surfaces
// context.DeadlineExceeded.
func TestBatchCDRDeadline(t *testing.T) {
	regions := scatterRegions(t, 8, 40)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := BatchCDR(ctx, regions, &BatchOptions{NoPrune: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BatchCDR past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchCDRNilOptions: nil options and nil context take the defaults.
func TestBatchCDRNilOptions(t *testing.T) {
	regions := scatterRegions(t, 12, 10)
	//lint:ignore SA1012 deliberate nil-context robustness check
	res, err := BatchCDR(nil, regions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(regions)*(len(regions)-1) {
		t.Fatalf("got %d pairs", len(res.Pairs))
	}
	if res.Stats.Passes == 0 {
		t.Error("stats not aggregated")
	}
}
