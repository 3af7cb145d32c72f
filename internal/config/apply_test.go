package config

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/wal"
)

// worldState is everything a refused edit must leave as it was.
type worldState struct {
	doc   []byte
	names []string
	gen   uint64
	index int
	bulks int
}

func stateOf(t testing.TB, tr *Tracked) worldState {
	t.Helper()
	var st worldState
	if err := tr.View(func(img *Image) (err error) { st.doc, err = img.Bytes(); return }); err != nil {
		t.Fatal(err)
	}
	st.names, st.gen, st.index = tr.Store().Names(), tr.Store().Generation(), tr.Index().Len()
	st.bulks = tr.Store().Stats().BulkBatches
	return st
}

func (a worldState) equal(b worldState) bool {
	return bytes.Equal(a.doc, b.doc) && reflect.DeepEqual(a.names, b.names) &&
		a.gen == b.gen && a.index == b.index && a.bulks == b.bulks
}

// TestTrackedApply pins the contract of the one op switch: an empty slice
// is no edit, one record is the matching edit method, a run of adds is one
// bulk (one generation bump), and any other batch is refused with
// document, store, index, generation and Err unchanged.
func TestTrackedApply(t *testing.T) {
	add := func(id string, x float64) wal.Record {
		return wal.Record{Op: wal.OpAdd, ID: id, Name: "N" + id, Color: "grey", Geometry: sqRegion(x, 10, x+1, 11)}
	}
	for _, c := range []struct {
		name       string
		recs       []wal.Record
		refused    bool
		gens, bulk int    // generation and BulkBatches steps of an accepted edit
		ids        string // the document's region ids afterwards
	}{
		{name: "empty", ids: "a b"},
		{name: "add", recs: []wal.Record{add("c", 10)}, gens: 1, ids: "a b c"},
		{name: "set geometry", recs: []wal.Record{{Op: wal.OpSetGeometry, ID: "a", Geometry: sqRegion(7, 7, 8, 8)}}, gens: 1, ids: "a b"},
		{name: "rename", recs: []wal.Record{{Op: wal.OpRename, ID: "a", NewID: "alpha"}}, gens: 1, ids: "alpha b"},
		{name: "remove", recs: []wal.Record{{Op: wal.OpRemove, ID: "b"}}, gens: 1, ids: "a"},
		{name: "three adds", recs: []wal.Record{add("c", 10), add("d", 12), add("e", 14)}, gens: 1, bulk: 1, ids: "a b c d e"},
		// Each refused batch would pass as a bulk of adds if its op were
		// not checked: the non-add record carries a fresh id and a valid
		// geometry.
		{name: "mixed batch", recs: []wal.Record{add("c", 10), {Op: wal.OpSetGeometry, ID: "d", Geometry: sqRegion(12, 10, 13, 11)}}, refused: true},
		{name: "unknown op", recs: []wal.Record{{Op: 0, ID: "c", Geometry: sqRegion(10, 10, 11, 11)}}, refused: true},
		{name: "unknown op in a batch", recs: []wal.Record{add("c", 10), {Op: 9, ID: "d", Geometry: sqRegion(12, 10, 13, 11)}}, refused: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := trackTiny(t)
			before := stateOf(t, tr)
			err := tr.Apply(c.recs)
			after := stateOf(t, tr)
			if tr.Err() != nil {
				t.Fatalf("Apply latched %v", tr.Err())
			}
			if c.refused {
				if err == nil {
					t.Fatal("accepted")
				}
				if !after.equal(before) {
					t.Fatal("refused edit changed the world")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := after.gen - before.gen; got != uint64(c.gens) {
				t.Errorf("generation moved %d, want %d", got, c.gens)
			}
			if got := after.bulks - before.bulks; got != c.bulk {
				t.Errorf("BulkBatches moved %d, want %d", got, c.bulk)
			}
			if got := docIDs(tr); !reflect.DeepEqual(got, strings.Fields(c.ids)) {
				t.Errorf("document holds %v, want %s", got, c.ids)
			}
			checkInStep(t, c.name, tr)
		})
	}
}

// logImage writes recs as one WAL batch and returns the log file's bytes.
func logImage(tb testing.TB, recs ...wal.Record) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.log")
	w, err := wal.Create(path, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.AppendBatch(recs); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzTrackedApply fuzzes the one op switch: the input is a WAL image, and
// its intact records (at most four) are applied as one edit to a tracked
// world of two regions. A refused edit must change nothing; an accepted one
// must latch nothing and leave a document whose fresh Track relates every
// pair exactly as the edited store does.
func FuzzTrackedApply(f *testing.F) {
	box := sqRegion(10, 10, 11, 11)
	for _, recs := range [][]wal.Record{
		{{Op: wal.OpAdd, ID: "c", Name: "Gamma", Color: "green", Geometry: box}},
		{{Op: wal.OpRemove, ID: "a"}},
		{{Op: wal.OpRename, ID: "a", NewID: "alpha"}},
		{{Op: wal.OpSetGeometry, ID: "b", Geometry: box}},
		{{Op: wal.OpAdd, ID: "c", Geometry: box}, {Op: wal.OpAdd, ID: "d", Geometry: sqRegion(-3, -3, -2, -2)}},
		{{Op: wal.OpAdd, ID: "c", Geometry: box}, {Op: wal.OpSetGeometry, ID: "d", Geometry: sqRegion(-3, -3, -2, -2)}},
	} {
		f.Add(logImage(f, recs...))
	}
	opt := core.StoreOptions{Workers: 1, Pct: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, _ := wal.Replay(data)
		if len(recs) > 4 {
			recs = recs[:4]
		}
		tr, err := Track(tinyImage(), opt)
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, tr)
		if err := tr.Apply(recs); err != nil {
			if !stateOf(t, tr).equal(before) || tr.Err() != nil {
				t.Fatalf("refused edit (%v) changed the world or latched %v", err, tr.Err())
			}
			return
		}
		if err := tr.Err(); err != nil {
			t.Fatalf("accepted edit latched %v", err)
		}
		var doc *Image
		tr.View(func(img *Image) error {
			doc = &Image{Regions: append([]Region(nil), img.Regions...)}
			return nil
		})
		fresh, err := Track(doc, opt)
		if err != nil {
			t.Fatalf("the edited document does not track: %v", err)
		}
		if got, want := tr.Store().Pairs(), fresh.Store().Pairs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("edited store relates %v, a fresh Track %v", got, want)
		}
	})
}
