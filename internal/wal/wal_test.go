package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cardirect/internal/geom"
)

// sampleRecords covers every op, empty strings, multi-polygon geometries
// and awkward float values.
func sampleRecords() []Record {
	return []Record{
		{Op: OpAdd, ID: "attica", Name: "Attica", Color: "#aabbcc",
			Geometry: geom.Region{geom.Poly(geom.Pt(0, 0), geom.Pt(0, 4), geom.Pt(4, 4), geom.Pt(4, 0))}},
		{Op: OpAdd, ID: "islands", Name: "", Color: "",
			Geometry: geom.Region{
				geom.Poly(geom.Pt(10, 10), geom.Pt(10, 11), geom.Pt(11, 11)),
				geom.Poly(geom.Pt(-1.5, 2.25), geom.Pt(-1.5, 3), geom.Pt(0.125, 3), geom.Pt(0.125, 2.25)),
			}},
		{Op: OpSetGeometry, ID: "attica",
			Geometry: geom.Region{geom.Poly(geom.Pt(0.1, 0.2), geom.Pt(0.1, 7.5), geom.Pt(3.25, 7.5), geom.Pt(3.25, 0.2))}},
		{Op: OpRename, ID: "islands", NewID: "cyclades"},
		{Op: OpRemove, ID: "cyclades"},
	}
}

// writeSample writes the sample records to a fresh log and returns its path.
func writeSample(t *testing.T, opt Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeSample(t, Options{Policy: SyncAlways})
	recs, valid, corr, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if corr != nil {
		t.Fatalf("unexpected corruption: %v", corr)
	}
	want := sampleRecords()
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", recs, want)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if valid != st.Size() {
		t.Fatalf("validSize = %d, file size = %d", valid, st.Size())
	}
}

// TestLogBytesGolden pins the on-disk format: the sample records, one
// appended alone and the rest as a batch, make exactly these bytes, so that
// logs already on disk keep replaying.
func TestLogBytesGolden(t *testing.T) {
	const golden = "434457414c30303159000000d8686d6c01066174746963610641747469636107236161626263630104000000000000000000000000000000000000000000000000000000000000104000000000000010400000000000001040000000000000104000000000000000007e0000003786f309010769736c616e64730000020300000000000024400000000000002440000000000000244000000000000026400000000000002640000000000000264004000000000000f8bf0000000000000240000000000000f8bf0000000000000840000000000000c03f0000000000000840000000000000c03f00000000000002404a0000005a5142a3040661747469636101049a9999999999b93f9a9999999999c93f9a9999999999b93f0000000000001e400000000000000a400000000000001e400000000000000a409a9999999999c93f12000000da62c67c030769736c616e6473086379636c616465730a0000004cace1e902086379636c61646573"
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[1:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("log bytes changed:\n got %s\nwant %s", got, golden)
	}
}

func TestReplayMissingFile(t *testing.T) {
	recs, valid, corr, err := ReplayFile(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || corr != nil || recs != nil || valid != 0 {
		t.Fatalf("missing file: recs=%v valid=%d corr=%v err=%v", recs, valid, corr, err)
	}
}

func TestMetricsAndSyncPolicies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	m := w.Metrics()
	if m.Records != int64(len(sampleRecords())) {
		t.Errorf("Records = %d, want %d", m.Records, len(sampleRecords()))
	}
	// Header sync plus one per record.
	if m.Fsyncs != m.Records+1 {
		t.Errorf("SyncAlways fsyncs = %d, want %d", m.Fsyncs, m.Records+1)
	}
	st, _ := os.Stat(path)
	if m.Bytes != st.Size() {
		t.Errorf("Bytes = %d, file size = %d", m.Bytes, st.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// SyncNever issues no explicit fsyncs until Close (which skips them too).
	w2, err := Create(filepath.Join(t.TempDir(), "n.log"), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w2.Metrics().Fsyncs; got != 0 {
		t.Errorf("SyncNever fsyncs = %d, want 0", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// SyncInterval with a huge interval syncs only at Create+Close.
	w3, err := Create(filepath.Join(t.TempDir(), "i.log"), Options{Policy: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w3.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w3.Metrics().Fsyncs; got != 0 {
		t.Errorf("SyncInterval(1h) fsyncs before close = %d, want 0", got)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAppendContinues(t *testing.T) {
	path := writeSample(t, Options{Policy: SyncNever})
	_, valid, _, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(path, Magic, valid, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	extra := Record{Op: OpRemove, ID: "attica"}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, corr, err := ReplayFile(path)
	if err != nil || corr != nil {
		t.Fatalf("replay after append: corr=%v err=%v", corr, err)
	}
	want := append(sampleRecords(), extra)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("append mismatch: got %d records, want %d", len(recs), len(want))
	}
}

// TestOpenAppendTruncatesTornTail checks that appending after a torn tail
// first cuts the garbage, so the log never carries corruption forward.
func TestOpenAppendTruncatesTornTail(t *testing.T) {
	path := writeSample(t, Options{Policy: SyncNever})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, valid, corr, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if corr == nil {
		t.Fatal("torn tail not reported")
	}
	w, err := Open(path, Magic, valid, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	extra := Record{Op: OpRename, ID: "attica", NewID: "attika"}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, _, corr2, err := ReplayFile(path)
	if err != nil || corr2 != nil {
		t.Fatalf("replay after truncate+append: corr=%v err=%v", corr2, err)
	}
	want := append(append([]Record{}, recs...), extra)
	if !reflect.DeepEqual(recs2, want) {
		t.Fatalf("after truncate+append: got %d records, want %d", len(recs2), len(want))
	}
}

// TestTruncationAtEveryOffset cuts a live log at every possible length and
// asserts replay always yields an intact prefix of the written records —
// never an error, never a panic, never a record that was not written.
func TestTruncationAtEveryOffset(t *testing.T) {
	path := writeSample(t, Options{Policy: SyncNever})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for cut := 0; cut <= len(data); cut++ {
		recs, valid, corr := Replay(data[:cut])
		if valid > int64(cut) {
			t.Fatalf("cut %d: validSize %d beyond data", cut, valid)
		}
		if len(recs) > len(want) {
			t.Fatalf("cut %d: %d records out of %d written", cut, len(recs), len(want))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, want[i]) {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
		// A clean replay must have consumed the whole input — the cut
		// landed on a record boundary (or produced an empty log).
		if corr == nil && valid != int64(cut) && cut != 0 {
			t.Fatalf("cut %d: clean replay but validSize %d", cut, valid)
		}
		if corr != nil && valid == int64(cut) {
			t.Fatalf("cut %d: corruption reported yet whole input valid", cut)
		}
	}
}

// TestBitFlipAtEveryOffset flips every bit of a live log, one at a time,
// and asserts replay never panics, never errors, and every surviving record
// is byte-identical to one that was written at its position — corrupted
// tails are discarded, not misread.
func TestBitFlipAtEveryOffset(t *testing.T) {
	path := writeSample(t, Options{Policy: SyncNever})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	data := make([]byte, len(orig))
	for off := 0; off < len(orig); off++ {
		for bit := 0; bit < 8; bit++ {
			copy(data, orig)
			data[off] ^= 1 << bit
			recs, valid, _ := Replay(data)
			if valid > int64(len(data)) {
				t.Fatalf("flip %d.%d: validSize beyond data", off, bit)
			}
			if len(recs) > len(want) {
				t.Fatalf("flip %d.%d: extra records", off, bit)
			}
			for i, rec := range recs {
				if !reflect.DeepEqual(rec, want[i]) {
					// A flip inside record i's payload must be caught by the
					// CRC; reaching here means it was not.
					t.Fatalf("flip %d.%d: record %d silently corrupted", off, bit, i)
				}
			}
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "big.log"), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := make(geom.Polygon, MaxPayload/16+2)
	if err := w.Append(Record{Op: OpSetGeometry, ID: "x", Geometry: geom.Region{big}}); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestEncodeDecodeRecord round-trips every sample record through the
// exported payload codec replication ships over its own framing.
func TestEncodeDecodeRecord(t *testing.T) {
	for i, rec := range sampleRecords() {
		got, err := DecodeRecord(AppendRecord(nil, rec))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty payload decoded without error")
	}
	if _, err := DecodeRecord([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("garbage payload decoded without error")
	}
}
