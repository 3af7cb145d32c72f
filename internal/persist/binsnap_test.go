package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// snapshotFiles builds a store with percent matrices, closes it and returns
// the directory plus the path of its generation-1 snapshot.
func snapshotFiles(t *testing.T, n int) (dir, binPath string) {
	t.Helper()
	dir = t.TempDir()
	gen := workload.New(29)
	s := openForTest(t, dir, buildImage(t, gen.Scatter(n, 10)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, binSnapshotName(1))
}

// TestBinarySnapshotRoundTrip asserts the binary format is full-fidelity
// against the paper's XML, which is what a snapshot is exported as: the
// document decoded from snapshot-<seq>.bin, written as XML and parsed
// back, is deep-equal to itself — region ids, names, colors, polygon ids,
// bit-exact vertices, and verbatim relation type and pct strings.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	_, binPath := snapshotFiles(t, 8)
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	exportAgrees := func(what string, img *config.Image) {
		t.Helper()
		xml, err := img.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		fromXML, err := config.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromXML, img) {
			t.Errorf("%s: the XML export parses differently:\nxml %+v\nbin %+v", what, fromXML, img)
		}
	}
	exportAgrees("snapshot", fromBin)
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
	exportAgrees("with relations", again)
}

// TestLoadTellsFormats: Load reads the paper's XML and a binary snapshot,
// with or without a recorded position, into the same image, and refuses
// garbage, empty and truncated input with an error naming the format it
// tried.
func TestLoadTellsFormats(t *testing.T) {
	doc, err := config.Greece().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	fromXML, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []Position{{}, {Epoch: "e1", Seq: 3, Gen: 5, Pct: true}} {
		fromBin, err := Load(EncodeSnapshotAt(fromXML, pos))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromBin, fromXML) {
			t.Errorf("position %+v: the snapshot loads a different image than its XML", pos)
		}
	}
	bin := EncodeSnapshot(fromXML)
	for name, c := range map[string]struct {
		data   []byte
		format string
	}{
		"garbage":        {[]byte("not a configuration"), "XML"},
		"empty":          {nil, "XML"},
		"wrong root":     {[]byte("<Config/>"), "XML"},
		"magic only":     {[]byte(magic), "binary snapshot"},
		"truncated CDSN": {bin[:len(bin)/2], "binary snapshot"},
		"CDSN tail cut":  {bin[:len(bin)-1], "binary snapshot"},
	} {
		if _, err := Load(c.data); err == nil || !strings.Contains(err.Error(), c.format) {
			t.Errorf("%s: %v, want an error naming the %s", name, err, c.format)
		}
	}
}

// TestBinarySnapshotFaultInjection corrupts the binary snapshot at
// arbitrary offsets — truncations and single-bit flips across the header,
// payload and trailer — and asserts every damaged file is rejected by the
// decoder (the CRC detects all single-bit errors) rather than decoded into
// a wrong document.
func TestBinarySnapshotFaultInjection(t *testing.T) {
	_, binPath := snapshotFiles(t, 5)
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

// TestRecoveryRefusesDamagedSnapshot pins what recovery does with a live
// snapshot it cannot load — one that fails its CRC, or passes it and does
// not track: Open fails with an error that names the file and leaves the
// directory as it was, as a flipped log byte has no second copy either.
// The intact snapshot recovers the same world before and after.
func TestRecoveryRefusesDamagedSnapshot(t *testing.T) {
	dir, binPath := snapshotFiles(t, 6)

	r := openForTest(t, dir, nil)
	wantPairs, _ := statePairs(t, r.Tracked())
	r.Close()
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x04
	dup, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	dup.Regions = append(dup.Regions, dup.Regions[0]) // two regions, one id
	bumped := bytes.Clone(data)
	bumped[4] = binVersion + 1

	for what, damaged := range map[string][]byte{
		"a bit flip":        flipped,
		"an untrackable":    EncodeSnapshot(dup),
		"a future version":  encodeWithCRC(bumped),
		"a truncated tail":  data[:len(data)-3],
		"an empty snapshot": nil,
	} {
		if err := os.WriteFile(binPath, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		if s, err := Open(dir, nil, Options{}); err == nil {
			s.Close()
			t.Errorf("%s: Open recovered from a damaged snapshot", what)
		} else if !strings.Contains(err.Error(), binPath) {
			t.Errorf("%s: the refusal does not name %s: %v", what, binPath, err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused Open changed the directory", what)
		}
	}

	if err := os.WriteFile(binPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r = openForTest(t, dir, nil)
	defer r.Close()
	if gotPairs, _ := statePairs(t, r.Tracked()); !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Error("the restored snapshot recovered a different world")
	}
}

// TestRecoveryRefusesXMLSnapshot: a directory whose newest snapshot is
// XML — one written before the binary format — is refused with the file's
// name and the -config seed that starts from it, and is left as it was.
func TestRecoveryRefusesXMLSnapshot(t *testing.T) {
	xml, err := config.Greece().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		bin  bool
		seq  uint64
	}{
		{"an XML-only generation", false, 1},
		{"an XML generation above a binary one", true, 2},
	} {
		dir := t.TempDir()
		if c.bin {
			openForTest(t, dir, config.Greece()).Close()
		}
		xmlPath := filepath.Join(dir, xmlSnapshotName(c.seq))
		if err := os.WriteFile(xmlPath, xml, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		if _, err := Open(dir, nil, Options{}); err == nil || !strings.Contains(err.Error(), "-config "+xmlPath) {
			t.Errorf("%s: Open = %v, want a refusal naming %s as a -config seed", c.what, err, xmlPath)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused Open changed the directory", c.what)
		}
	}
}

// dirFiles returns every file in dir by name, but the lock file.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestStaleTempSweep plants leftovers of a crashed rotation — a snapshot
// temp file and a damaged higher-generation binary whose log was never
// created — and asserts Open removes both while leaving every live
// generation file untouched.
func TestStaleTempSweep(t *testing.T) {
	dir, binPath := snapshotFiles(t, 4)
	tmp := filepath.Join(dir, "snapshot-1234567.tmp")
	if err := os.WriteFile(tmp, []byte("partial write from a crashed rotation"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A generation 2 whose binary is damaged and whose log was never
	// created: recovery falls back to generation 1, and the sweep removes it.
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
	for _, live := range []string{binPath, filepath.Join(dir, walName(1)), filepath.Join(dir, "LOCK")} {
		if _, err := os.Stat(live); err != nil {
			t.Errorf("live generation file disturbed: %s: %v", live, err)
		}
	}
	if got := r.Status().Seq; got != 1 {
		t.Errorf("seq = %d, want 1", got)
	}
}

// TestBinarySnapshotVersionGate: a future-versioned file must be refused
// rather than misdecoded (and recovery refuses it:
// TestRecoveryRefusesDamagedSnapshot).
func TestBinarySnapshotVersionGate(t *testing.T) {
	_, binPath := snapshotFiles(t, 3)
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

// TestBinarySnapshotPosition: a snapshot records the position it was
// encoded at, and a version 1 file — no position in it — still decodes, to
// the same image and no position.
func TestBinarySnapshotPosition(t *testing.T) {
	img := config.Greece()
	pos := Position{Epoch: "0123456789abcdef", Seq: 7, Gen: 9, Pct: true}
	want, err := DecodeSnapshot(EncodeSnapshot(img))
	if err != nil {
		t.Fatal(err)
	}
	got, gotPos, err := decodeSnapshot(EncodeSnapshotAt(img, pos))
	if err != nil || gotPos != pos || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v (err %v), want %+v and the same image", gotPos, err, pos)
	}
	// Version 1: the same header, no position ahead of the document.
	v2 := EncodeSnapshot(img)
	const noPosition = 4 + 8 + 8 + 4 // empty epoch, seq, gen, pct
	v1 := bytes.Clone(v2[:binHeaderLen])
	binary.LittleEndian.PutUint16(v1[4:], 1)
	binary.LittleEndian.PutUint64(v1[8:], uint64(len(v2)-binHeaderLen-4-noPosition))
	v1 = append(v1, v2[binHeaderLen+noPosition:]...)
	got, gotPos, err = decodeSnapshot(encodeWithCRC(v1))
	if err != nil || gotPos != (Position{}) || !reflect.DeepEqual(got, want) {
		t.Fatalf("version 1 decoded to %+v (err %v), want no position and the same image", gotPos, err)
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
