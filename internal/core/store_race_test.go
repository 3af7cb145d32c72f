package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cardirect/internal/workload"
)

// TestRelationStoreConcurrentReadsDuringEdits hammers cached reads against
// a stream of geometry edits. Run under -race (make race / make check) it
// proves the store's RWMutex contract: Relation/Percent/Pairs/Names/Stats
// may be called from any goroutine while another mutates via
// SetGeometry/Add/Remove/Rename. Readers tolerate ErrUnknownRegion for
// regions that an editor has removed or renamed mid-flight, but never a
// torn read or a data race.
func TestRelationStoreConcurrentReadsDuringEdits(t *testing.T) {
	const n = 24
	gen := workload.New(41)
	base := gen.Scatter(n, 8)
	regions := make([]NamedRegion, n)
	for i, r := range base {
		regions[i] = NamedRegion{Name: fmt.Sprintf("r%02d", i), Region: r}
	}
	st, err := NewRelationStore(regions, StoreOptions{Pct: true})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh geometries for the editor to cycle through.
	alt := gen.Scatter(n, 8)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	readErr := make(chan error, 1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := fmt.Sprintf("r%02d", i%n)
				b := fmt.Sprintf("r%02d", (i+1)%n)
				if _, err := st.Relation(a, b); err != nil && !errors.Is(err, ErrUnknownRegion) {
					select {
					case readErr <- fmt.Errorf("Relation(%s,%s): %w", a, b, err):
					default:
					}
					return
				}
				if _, err := st.Percent(a, b); err != nil && !errors.Is(err, ErrUnknownRegion) {
					select {
					case readErr <- fmt.Errorf("Percent(%s,%s): %w", a, b, err):
					default:
					}
					return
				}
				switch i % 3 {
				case 0:
					st.Names()
				case 1:
					st.Pairs()
				case 2:
					st.Stats()
				}
				i++
			}
		}(g)
	}

	// Editor: geometry rewrites, plus churn through remove/re-add and a
	// rename round-trip so readers see membership changes too.
	const edits = 150
	for i := 0; i < edits; i++ {
		name := fmt.Sprintf("r%02d", i%n)
		switch i % 5 {
		case 0, 1, 2:
			if err := st.SetGeometry(name, alt[(i+7)%n]); err != nil {
				t.Fatalf("SetGeometry %s: %v", name, err)
			}
		case 3:
			if err := st.Remove(name); err != nil {
				t.Fatalf("Remove %s: %v", name, err)
			}
			if err := st.Add(name, alt[i%n]); err != nil {
				t.Fatalf("Add %s: %v", name, err)
			}
		case 4:
			tmp := name + "-tmp"
			if err := st.Rename(name, tmp); err != nil {
				t.Fatalf("Rename %s: %v", name, err)
			}
			if err := st.Rename(tmp, name); err != nil {
				t.Fatalf("Rename back %s: %v", tmp, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}

	if st.Len() != n {
		t.Fatalf("store drifted: Len = %d, want %d", st.Len(), n)
	}
	// After the dust settles the cache must equal a from-scratch batch.
	names := st.Names()
	final := make([]NamedRegion, 0, n)
	for _, name := range names {
		p, ok := st.Prepared(name)
		if !ok {
			t.Fatalf("Prepared(%s) missing", name)
		}
		final = append(final, NamedRegion{Name: name, Region: p.Region()})
	}
	want, _ := batchCDR(t, final, BatchOptions{Workers: 1})
	got := st.Pairs()
	if len(got) != len(want) {
		t.Fatalf("pairs: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: cached %+v, recomputed %+v", i, got[i], want[i])
		}
	}
}
