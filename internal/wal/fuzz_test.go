package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the log reader: it must never
// panic, never report a valid prefix longer than the input, and — when the
// input is a log image the writer produced — decode exactly the records
// that were written (checked by re-encoding every decoded record).
func FuzzWALReplay(f *testing.F) {
	// Seed with a real log image and mutations of it.
	full, err := appendRecords([]byte(Magic), sampleRecords())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Add([]byte("CDWAL001\x05\x00\x00\x00\xde\xad\xbe\xef\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, corr := Replay(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("validSize %d out of range [0, %d]", valid, len(data))
		}
		if corr != nil && (corr.Offset < 0 || corr.Offset > int64(len(data))) {
			t.Fatalf("corruption offset %d out of range", corr.Offset)
		}
		// Round-trip: re-encoding the decoded records must reproduce the
		// valid prefix byte for byte — the reader accepts nothing the
		// writer would not have produced... except non-canonical uvarints,
		// so compare through a decode of the re-encoding instead.
		re, err := appendRecords([]byte(Magic), recs)
		if err != nil {
			t.Fatal(err)
		}
		recs2, _, corr2 := Replay(re)
		if corr2 != nil {
			t.Fatalf("re-encoded log corrupt: %v", corr2)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("re-encode round-trip mismatch: %d vs %d records", len(recs), len(recs2))
		}
	})
}

// FuzzFrames feeds an arbitrary header and arbitrary bytes to the frame
// reader the log, the replication stream and a replica's cache share: no
// panic, the valid prefix stays inside the input, a clean read consumed all
// of it, and the accepted payloads re-frame to exactly the prefix's bytes.
func FuzzFrames(f *testing.F) {
	frames, err := AppendFrame([]byte("CDRS0002"), []byte("seq|gen|"), []byte("edits"))
	if err != nil {
		f.Fatal(err)
	}
	frames, _ = AppendFrame(frames)
	f.Add("CDRS0002", frames)
	f.Add("CDRS0002", frames[:len(frames)-3])
	f.Add("CDRS0001", frames)
	f.Add("", frames[8:])
	f.Add(Magic, []byte(Magic+"\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, header string, data []byte) {
		var payloads [][]byte
		valid, corr := ReadFrames(data, header, func(p []byte) error {
			payloads = append(payloads, p)
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("validSize %d out of range [0, %d]", valid, len(data))
		}
		if corr == nil && valid != int64(len(data)) {
			t.Fatalf("no corruption reported but %d of %d bytes read", valid, len(data))
		}
		if valid == 0 {
			return
		}
		re := []byte(header)
		for _, p := range payloads {
			var err error
			if re, err = AppendFrame(re, p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("accepted frames do not re-frame to their own bytes")
		}
	})
}
