package replica

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
)

// streamFixture builds a small stream of records: single edits, one
// multi-edit bulk batch, matching what a primary ships, and a record with
// no edits, which frames and decodes like any other.
func streamFixture(t *testing.T) []StreamRecord {
	t.Helper()
	box := func(x float64) geom.Region {
		return geom.Rgn(geom.Poly(geom.Rect{MinX: x, MinY: 0, MaxX: x + 5, MaxY: 5}.Vertices()...))
	}
	return []StreamRecord{
		NewStreamRecord(1, 4, wal.Record{Op: wal.OpAdd, ID: "a", Name: "Alpha", Color: "#ff0000", Geometry: box(0)}),
		NewStreamRecord(2, 5,
			wal.Record{Op: wal.OpAdd, ID: "b", Geometry: box(10)},
			wal.Record{Op: wal.OpAdd, ID: "c", Geometry: box(20)},
			wal.Record{Op: wal.OpAdd, ID: "d", Geometry: box(30)},
		),
		NewStreamRecord(3, 6, wal.Record{Op: wal.OpRemove, ID: "a"}),
		NewStreamRecord(4, 7, wal.Record{Op: wal.OpRename, ID: "b", NewID: "beta"}),
		NewStreamRecord(5, 7),
	}
}

// sameRecord reports whether a decoded record is the one encoded: seq, gen,
// the frame's bytes and the edits.
func sameRecord(got, want StreamRecord) bool {
	return got.Seq == want.Seq && got.Gen == want.Gen && bytes.Equal(got.Frame, want.Frame) &&
		reflect.DeepEqual(got.Edits, want.Edits)
}

func TestStreamRoundTrip(t *testing.T) {
	recs := streamFixture(t)
	data := EncodeStream(recs)
	got, validSize, corr := DecodeStream(data)
	if corr != nil {
		t.Fatalf("clean stream reported corruption: %v", corr)
	}
	if validSize != int64(len(data)) {
		t.Fatalf("validSize %d, want %d", validSize, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if !sameRecord(rec, recs[i]) {
			t.Fatalf("record %d differs: %+v vs %+v", i, rec, recs[i])
		}
	}
	if _, _, corr := DecodeStream(nil); corr != nil {
		t.Fatalf("empty input reported corruption: %v", corr)
	}
}

// TestDecodeStreamTruncation cuts a valid stream at every byte offset: the
// decode must never panic, must return an intact record prefix, and the
// reported valid prefix must re-encode to exactly the bytes it spans.
func TestDecodeStreamTruncation(t *testing.T) {
	full := EncodeStream(streamFixture(t))
	want, _, _ := DecodeStream(full)
	for cut := 0; cut < len(full); cut++ {
		data := full[:cut]
		recs, validSize, corr := DecodeStream(data)
		if validSize > int64(cut) {
			t.Fatalf("cut %d: validSize %d exceeds input", cut, validSize)
		}
		if len(recs) > len(want) {
			t.Fatalf("cut %d: more records than the intact stream", cut)
		}
		for i, rec := range recs {
			if !sameRecord(rec, want[i]) {
				t.Fatalf("cut %d: record %d is not a prefix of the intact decode", cut, i)
			}
		}
		// A cut landing exactly on a record boundary is a complete,
		// shorter stream — no diagnostic; anywhere else must report one.
		if corr == nil && validSize != int64(cut) {
			t.Fatalf("cut %d: no diagnostic but only %d bytes decoded", cut, validSize)
		}
		if corr != nil && cut > 0 && validSize == int64(cut) {
			t.Fatalf("cut %d: clean full decode reported corruption: %v", cut, corr)
		}
		if validSize > 0 {
			if got := EncodeStream(recs); !bytes.Equal(got, data[:validSize]) {
				t.Fatalf("cut %d: valid prefix does not re-encode to its bytes", cut)
			}
		}
	}
}

// TestDecodeStreamBitFlip flips every byte of a valid stream in turn: no
// panic, and every returned record must equal the one encoded at its
// position in seq, gen, frame and edits (the flip may only shorten the accepted
// prefix, never corrupt it — the frame's CRC covers seq and gen too).
func TestDecodeStreamBitFlip(t *testing.T) {
	want := streamFixture(t)
	full := EncodeStream(want)
	for off := 0; off < len(full); off++ {
		data := append([]byte(nil), full...)
		data[off] ^= 0x40
		recs, validSize, _ := DecodeStream(data)
		if validSize > int64(len(data)) {
			t.Fatalf("flip at %d: validSize %d exceeds input", off, validSize)
		}
		for i, rec := range recs {
			if !sameRecord(rec, want[i]) {
				t.Fatalf("flip at %d: accepted record %d differs from the one encoded: %+v vs %+v", off, i, rec, want[i])
			}
		}
	}
}

func TestDecodeStreamBadHeader(t *testing.T) {
	for _, data := range [][]byte{[]byte("CDRS"), []byte("XXXXXXXX"), []byte("CDRS0001extra"), []byte("CDRS0002extra"), []byte("CDRS0003extra")} {
		recs, validSize, corr := DecodeStream(data)
		if corr == nil || validSize != 0 || len(recs) != 0 {
			t.Errorf("header %q: recs=%d valid=%d corr=%v", data, len(recs), validSize, corr)
		}
	}
}

func ExampleEncodeStream() {
	data := EncodeStream([]StreamRecord{NewStreamRecord(1, 12, wal.Record{Op: wal.OpRemove, ID: "attica"})})
	recs, _, _ := DecodeStream(data)
	fmt.Println(recs[0].Seq, recs[0].Gen, len(recs[0].Edits), recs[0].Edits[0].ID)
	// Output: 1 12 1 attica
}
