package replica

import (
	"bytes"
	"fmt"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
)

// streamFixture builds a small stream of records: single edits plus one
// multi-edit bulk batch, matching what a primary ships.
func streamFixture(t *testing.T) []StreamRecord {
	t.Helper()
	box := func(x float64) geom.Region {
		return geom.Rgn(geom.Poly(geom.Rect{MinX: x, MinY: 0, MaxX: x + 5, MaxY: 5}.Vertices()...))
	}
	recs := []StreamRecord{
		{Seq: 1, Gen: 4, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpAdd, ID: "a", Name: "Alpha", Color: "#ff0000", Geometry: box(0)},
		})},
		{Seq: 2, Gen: 5, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpAdd, ID: "b", Geometry: box(10)},
			{Op: wal.OpAdd, ID: "c", Geometry: box(20)},
			{Op: wal.OpAdd, ID: "d", Geometry: box(30)},
		})},
		{Seq: 3, Gen: 6, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpRemove, ID: "a"},
		})},
		{Seq: 4, Gen: 7, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpRename, ID: "b", NewID: "beta"},
		})},
	}
	return recs
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
		if rec.Seq != recs[i].Seq || rec.Gen != recs[i].Gen || !bytes.Equal(rec.Payload, recs[i].Payload) {
			t.Fatalf("record %d differs: %+v vs %+v", i, rec, recs[i])
		}
		edits, err := DecodeEdits(rec.Payload)
		if err != nil {
			t.Fatalf("record %d payload undecodable: %v", i, err)
		}
		if i == 1 && len(edits) != 3 {
			t.Fatalf("bulk record decoded to %d edits, want 3", len(edits))
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
			if rec.Seq != want[i].Seq || !bytes.Equal(rec.Payload, want[i].Payload) {
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
// position in seq, gen and payload (the flip may only shorten the accepted
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
			if rec.Seq != want[i].Seq || rec.Gen != want[i].Gen || !bytes.Equal(rec.Payload, want[i].Payload) {
				t.Fatalf("flip at %d: accepted record %d differs from the one encoded: %+v vs %+v", off, i, rec, want[i])
			}
		}
	}
}

func TestDecodeEditsRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0xff, 0xff, 0xff, 0xff}, // absurd count
		{0x01, 0x00, 0x00, 0x00}, // count 1, no edits
		{0x01, 0x00, 0x00, 0x00, 0xff, 0x00, 0x00, 0x00}, // length past end
	}
	for i, c := range cases {
		if _, err := DecodeEdits(c); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
	// Trailing bytes after a well-formed batch are an error, not ignored.
	ok := EncodeEdits([]wal.Record{{Op: wal.OpRemove, ID: "x"}})
	if _, err := DecodeEdits(append(ok, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeEdits(ok); err != nil {
		t.Errorf("clean batch rejected: %v", err)
	}
}

func TestDecodeStreamBadHeader(t *testing.T) {
	for _, data := range [][]byte{[]byte("CDRS"), []byte("XXXXXXXX"), []byte("CDRS0001extra")} {
		recs, validSize, corr := DecodeStream(data)
		if corr == nil || validSize != 0 || len(recs) != 0 {
			t.Errorf("header %q: recs=%d valid=%d corr=%v", data, len(recs), validSize, corr)
		}
	}
}

func TestEncodeEditsEmpty(t *testing.T) {
	payload := EncodeEdits(nil)
	recs, err := DecodeEdits(payload)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty batch: recs=%v err=%v", recs, err)
	}
	// An empty-batch record still frames and round-trips.
	data := EncodeStream([]StreamRecord{{Seq: 9, Gen: 9, Payload: payload}})
	got, _, corr := DecodeStream(data)
	if corr != nil || len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("empty-batch record: got=%v corr=%v", got, corr)
	}
}

func ExampleEncodeStream() {
	data := EncodeStream([]StreamRecord{
		{Seq: 1, Gen: 12, Payload: EncodeEdits([]wal.Record{{Op: wal.OpRemove, ID: "attica"}})},
	})
	recs, _, _ := DecodeStream(data)
	edits, _ := DecodeEdits(recs[0].Payload)
	fmt.Println(recs[0].Seq, recs[0].Gen, len(edits), edits[0].ID)
	// Output: 1 12 1 attica
}
