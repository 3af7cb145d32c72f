package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// snapshotFiles builds a store with percent matrices, closes it and returns
// the directory plus the generation-1 snapshot paths in both formats.
func snapshotFiles(t *testing.T, n int) (dir, xmlPath, binPath string) {
	t.Helper()
	dir = t.TempDir()
	gen := workload.New(29)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(n, 10)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, snapshotName(1)), filepath.Join(dir, binSnapshotName(1))
}

// TestBinarySnapshotRoundTrip asserts the binary format is full-fidelity:
// the document decoded from snapshot-<seq>.bin is deep-equal to the one
// parsed from snapshot-<seq>.xml — region ids, names, colors, polygon ids,
// bit-exact vertices, and verbatim relation type and pct strings.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	_, xmlPath, binPath := snapshotFiles(t, 8)
	fromXML, err := loadSnapshot(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeValidSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin, fromXML) {
		t.Errorf("binary snapshot decodes differently from the XML:\nbin %+v\nxml %+v", fromBin, fromXML)
	}
	// And a pure in-memory round-trip is the identity — Relation elements
	// included, which snapshots no longer carry but documents (and data
	// directories written before) do.
	if err := fromBin.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	again, err := DecodeSnapshot(EncodeSnapshot(fromBin))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, fromBin) {
		t.Error("encode/decode round-trip is not the identity")
	}
}

// TestBinarySnapshotFaultInjection corrupts the binary snapshot at
// arbitrary offsets — truncations and single-bit flips across the header,
// payload and trailer — and asserts every damaged file is rejected by the
// decoder (the CRC detects all single-bit errors) rather than decoded into
// a wrong document.
func TestBinarySnapshotFaultInjection(t *testing.T) {
	_, _, binPath := snapshotFiles(t, 5)
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	for _, cut := range []int{0, 1, binHeaderLen - 1, binHeaderLen, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Bit flips at offsets spread across the file: magic, version, flags,
	// length, payload start/middle/end, CRC.
	offsets := []int{0, 4, 6, 8, binHeaderLen, binHeaderLen + 1, len(data) / 3,
		len(data) / 2, len(data) - 5, len(data) - 4, len(data) - 1}
	for _, off := range offsets {
		for _, bit := range []byte{0x01, 0x80} {
			flipped := bytes.Clone(data)
			flipped[off] ^= bit
			if _, err := DecodeSnapshot(flipped); err == nil {
				t.Errorf("bit flip %#02x at offset %d decoded successfully", bit, off)
			}
		}
	}
}

// TestRecoveryPrefersBinaryFallsBackToXML pins the recovery preference
// order: an intact binary snapshot is loaded and reported, a corrupt or
// missing one falls back to the XML of the same generation with identical
// recovered state, and the admin status surfaces which format won.
func TestRecoveryPrefersBinaryFallsBackToXML(t *testing.T) {
	dir, _, binPath := snapshotFiles(t, 6)

	r := openForTest(t, dir, nil)
	if got := r.Status().RecoveredFrom; got != "binary" {
		t.Errorf("recovered_from = %q, want binary", got)
	}
	wantPairs, wantPcts := statePairs(t, r.Tracked())
	r.Close()

	// Bit-flip the binary payload: recovery must reject it on CRC and fall
	// back to the XML, losing nothing.
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x04
	if err := os.WriteFile(binPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openForTest(t, dir, nil)
	if got := r2.Status().RecoveredFrom; got != "xml" {
		t.Errorf("recovered_from after corruption = %q, want xml", got)
	}
	gotPairs, gotPcts := statePairs(t, r2.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) || len(gotPcts) != len(wantPcts) {
		t.Error("XML fallback recovered different state than the binary path")
	}
	r2.Close()

	// A directory with no binary at all (pre-binary-format data dirs)
	// recovers from XML alone.
	if err := os.Remove(binPath); err != nil {
		t.Fatal(err)
	}
	r3 := openForTest(t, dir, nil)
	defer r3.Close()
	if got := r3.Status().RecoveredFrom; got != "xml" {
		t.Errorf("recovered_from without binary = %q, want xml", got)
	}
	gotPairs, _ = statePairs(t, r3.Tracked())
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Error("XML-only recovery lost state")
	}
}

// TestStaleTempSweep plants leftovers of a crashed rotation — a snapshot
// temp file and an orphaned higher-generation binary whose XML never landed
// — and asserts Open removes both while leaving every live generation file
// untouched.
func TestStaleTempSweep(t *testing.T) {
	dir, xmlPath, binPath := snapshotFiles(t, 4)
	tmp := filepath.Join(dir, "snapshot-1234567.tmp")
	if err := os.WriteFile(tmp, []byte("partial write from a crashed rotation"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A rotation that crashed between installing the .bin and the .xml:
	// generation 2 does not exist (scanSnapshots keys off the XML), so its
	// orphaned binary must be swept.
	orphan := filepath.Join(dir, binSnapshotName(2))
	if err := os.WriteFile(orphan, []byte("orphaned binary snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Files the store did not write must survive the sweep, however much
	// their names resemble a generation's (Sscanf matches on a prefix).
	var foreign []string
	for _, name := range []string{"snapshot-00000001.xml.bak", "wal-00000001.log.bak",
		"wal-7.log.old", "snapshot-9.binary-notes", "notes.tmp"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("operator's file"), 0o644); err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, path)
	}

	r := openForTest(t, dir, nil)
	defer r.Close()
	for _, stale := range []string{tmp, orphan} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("stale file survived recovery: %s", stale)
		}
	}
	for _, kept := range foreign {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("foreign file swept: %v", err)
		}
	}
	for _, live := range []string{xmlPath, binPath, filepath.Join(dir, walName(1))} {
		if _, err := os.Stat(live); err != nil {
			t.Errorf("live generation file disturbed: %s: %v", live, err)
		}
	}
	if got := r.Status().Seq; got != 1 {
		t.Errorf("seq = %d, want 1", got)
	}
}

// TestBinaryRecoveryBeatsXML is the acceptance gate of the binary snapshot
// format, analogous to TestSeededRecoveryBeatsRecompute one layer down: on
// a 500-region world, decoding a generation's binary snapshot must be at
// least 2x faster than decoding the same generation's XML. The floor is on
// the decoders, the one step the format decides; the rest of an end-to-end
// recovery (validation, the store build) is the same work on either path,
// so both full recoveries are timed and logged, and must agree on the
// relation matrix.
func TestBinaryRecoveryBeatsXML(t *testing.T) {
	if testing.Short() {
		t.Skip("perf comparison skipped in -short")
	}
	const n = 500
	gen := workload.New(31)
	regions := gen.Cluster(n, 1, 96)
	dir := t.TempDir()
	s, err := Open(dir, buildImage(t, regions), Options{Pct: true, Sync: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	binData, err := os.ReadFile(filepath.Join(dir, binSnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	xmlData, err := os.ReadFile(filepath.Join(dir, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Best of three, so one descheduled run does not decide the ratio.
	best := func(decode func() error) time.Duration {
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := decode(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	binDecode := best(func() error { _, err := DecodeSnapshot(binData); return err })
	xmlDecode := best(func() error { _, err := config.Parse(xmlData); return err })

	start := time.Now()
	rBin, err := Open(dir, nil, Options{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	binElapsed := time.Since(start)
	if got := rBin.Status().RecoveredFrom; got != "binary" {
		t.Fatalf("recovered_from = %q, want binary", got)
	}
	wantPairs := rBin.Tracked().Store().Pairs()
	rBin.Close()

	// Force the XML path by removing the binary file.
	if err := os.Remove(filepath.Join(dir, binSnapshotName(1))); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	rXML, err := Open(dir, nil, Options{Pct: true})
	if err != nil {
		t.Fatal(err)
	}
	xmlElapsed := time.Since(start)
	defer rXML.Close()
	if got := rXML.Status().RecoveredFrom; got != "xml" {
		t.Fatalf("recovered_from = %q, want xml", got)
	}
	if !reflect.DeepEqual(rXML.Tracked().Store().Pairs(), wantPairs) {
		t.Fatal("XML and binary recovery disagree on the relation matrix")
	}

	t.Logf("decode: binary %v vs XML %v (%.1fx); full recovery: binary %v vs XML %v (%.2fx)",
		binDecode, xmlDecode, float64(xmlDecode)/float64(binDecode),
		binElapsed, xmlElapsed, float64(xmlElapsed)/float64(binElapsed))
	if xmlDecode < 2*binDecode {
		t.Errorf("binary snapshot decode (%v) not 2x faster than XML decode (%v)", binDecode, xmlDecode)
	}
}

// TestBinarySnapshotVersionGate: a future-versioned file must be refused
// (and recovery falls back to XML) rather than misdecoded.
func TestBinarySnapshotVersionGate(t *testing.T) {
	_, _, binPath := snapshotFiles(t, 3)
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version and re-checksum so only the version gate trips.
	bumped := bytes.Clone(data)
	bumped[4] = binVersion + 1
	recrc := encodeWithCRC(bumped)
	if _, err := DecodeSnapshot(recrc); err == nil {
		t.Error("future format version decoded successfully")
	}
}

// encodeWithCRC recomputes the trailing CRC over an edited frame, so tests
// can trip exactly one validation gate at a time.
func encodeWithCRC(frame []byte) []byte {
	out := bytes.Clone(frame)
	crc := wal.Checksum(out[4 : len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc)
	return out
}
