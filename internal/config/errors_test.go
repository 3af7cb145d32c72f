package config

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cardirect/internal/core"
)

// TestErrUnknownRegionWrapsCore: the config sentinel chains to the core
// sentinel, so one errors.Is check (and one HTTP status mapping) covers
// both layers.
func TestErrUnknownRegionWrapsCore(t *testing.T) {
	if !errors.Is(ErrUnknownRegion, core.ErrUnknownRegion) {
		t.Fatal("config.ErrUnknownRegion does not wrap core.ErrUnknownRegion")
	}
	tr, err := Track(Greece(), core.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.RemoveRegion("no-such")
	if !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("RemoveRegion err = %v, want config.ErrUnknownRegion", err)
	}
	if !errors.Is(err, core.ErrUnknownRegion) {
		t.Fatalf("RemoveRegion err = %v, should chain to core.ErrUnknownRegion", err)
	}
	// Store-layer misses chain the same way.
	if _, err := tr.Store().Relation("attica", "no-such"); !errors.Is(err, core.ErrUnknownRegion) {
		t.Fatalf("store miss err = %v, want core.ErrUnknownRegion", err)
	}
	// Duplicate ids are distinguishable from unknown ones.
	err = tr.AddRegion("attica", "", "", sqRegion(0, 0, 1, 1))
	if !errors.Is(err, ErrDuplicateRegion) {
		t.Fatalf("duplicate add err = %v, want ErrDuplicateRegion", err)
	}
	if errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("duplicate add err must not match ErrUnknownRegion: %v", err)
	}
}

// TestTrackedConcurrentViewAndEdit hammers Tracked.View readers against the
// write-locked edit methods. Under -race this proves the Tracked RWMutex
// contract that cardirectd relies on: concurrent HTTP reads (store lookups,
// index selections, document walks) stay consistent while PUT/DELETE edits
// land.
func TestTrackedConcurrentViewAndEdit(t *testing.T) {
	tr, err := Track(Greece(), core.StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := tr.View(func(img *Image) error {
					ref := img.FindRegion("attica")
					if ref == nil {
						t.Error("attica vanished mid-view")
						return nil
					}
					if _, err := tr.Store().Relation("attica", "peloponnesos"); err != nil {
						return err
					}
					_, _, err := tr.Index().SelectStatsCtx(context.Background(), ref.Geometry(), core.NewRelationSet(core.N, core.NE))
					return err
				})
				if err != nil {
					t.Errorf("View: %v", err)
					return
				}
			}
		}()
	}

	// Editor: bounce crete's geometry and churn a scratch region.
	crete := Greece().FindRegion("crete").Geometry()
	for i := 0; i < 60; i++ {
		if err := tr.SetRegionGeometry("crete", crete); err != nil {
			t.Fatalf("SetRegionGeometry: %v", err)
		}
		id := "scratch"
		if err := tr.AddRegion(id, "Scratch", "gray", sqRegion(500, 500, 520, 520)); err != nil {
			t.Fatalf("AddRegion: %v", err)
		}
		if err := tr.RenameRegion(id, id+"2"); err != nil {
			t.Fatalf("RenameRegion: %v", err)
		}
		if err := tr.RemoveRegion(id + "2"); err != nil {
			t.Fatalf("RemoveRegion: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if err := tr.Err(); err != nil {
		t.Fatalf("tracked latched error: %v", err)
	}
	if got := tr.Store().Len(); got != len(Greece().Regions) {
		t.Fatalf("store Len = %d, want %d", got, len(Greece().Regions))
	}
}
