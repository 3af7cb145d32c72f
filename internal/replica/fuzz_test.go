package replica

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
)

// FuzzReplicationStream feeds arbitrary bytes to the replication frame
// decoder. Invariants (the wal.Replay contract, lifted to streams): no
// panic; validSize never exceeds the input; every accepted record carries
// the seq and gen its frame holds; and the accepted prefix re-encodes to
// exactly the bytes it spans. Every record is a wal.OpEdit frame, the
// frame a replica's log holds for the edit.
func FuzzReplicationStream(f *testing.F) {
	box := geom.Rgn(geom.Poly(geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}.Vertices()...))
	first := NewStreamRecord(1, 2, wal.Record{Op: wal.OpAdd, ID: "a", Name: "Alpha", Color: "#ff0000", Geometry: box})
	valid := EncodeStream([]StreamRecord{
		first,
		NewStreamRecord(2, 3,
			wal.Record{Op: wal.OpRemove, ID: "a"},
			wal.Record{Op: wal.OpRename, ID: "b", NewID: "c"},
		),
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(StreamMagic))
	f.Add([]byte{})
	f.Add([]byte("CDRS0004garbagegarbagegarbage"))
	flipped := append([]byte(nil), valid...)
	flipped[len(StreamMagic)+4] ^= 0xff // corrupt the first record's CRC
	f.Add(flipped)
	flipped = append([]byte(nil), valid...)
	flipped[len(StreamMagic)+8+1+8] ^= 0x01 // and the first record's gen under it
	f.Add(flipped)
	// An edit frame that fails its own CRC inside a record whose frame
	// passes: the record is refused.
	inner := bytes.Clone(first.Frame[wal.FrameSize+wal.EditHeaderSize:])
	inner[len(inner)-1] ^= 0x01
	f.Add(append([]byte(StreamMagic), frameRecord(1, 2, inner)...))
	// The same records under the previous version's header.
	f.Add(append([]byte("CDRS0003"), valid[len(StreamMagic):]...))
	// A frame whose payload is a plain record, not an edit, and an edit
	// nested inside an edit: both refused.
	plain, _ := wal.AppendRecords([]byte(StreamMagic), first.Edits)
	f.Add(plain)
	nested, _ := wal.AppendRecords([]byte(StreamMagic), []wal.Record{{Op: wal.OpEdit, Seq: 1, Gen: 2,
		Edits: []wal.Record{{Op: wal.OpEdit, Seq: 1, Gen: 2, Edits: first.Edits}}}})
	f.Add(nested)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validSize, corr := DecodeStream(data)
		if validSize < 0 || validSize > int64(len(data)) {
			t.Fatalf("validSize %d out of range for %d input bytes", validSize, len(data))
		}
		for i, rec := range recs {
			if wal.Op(rec.Frame[wal.FrameSize]) != wal.OpEdit ||
				binary.LittleEndian.Uint64(rec.Frame[wal.FrameSize+1:]) != rec.Seq ||
				binary.LittleEndian.Uint64(rec.Frame[wal.FrameSize+1+8:]) != rec.Gen {
				t.Fatalf("accepted record %d reports seq %d gen %d, not its frame's", i, rec.Seq, rec.Gen)
			}
		}
		if validSize > 0 {
			if got := EncodeStream(recs); !bytes.Equal(got, data[:validSize]) {
				t.Fatalf("valid prefix does not re-encode to its own bytes")
			}
		}
		if corr == nil && len(data) > 0 && validSize != int64(len(data)) {
			t.Fatalf("no corruption reported but %d of %d bytes decoded", validSize, len(data))
		}
	})
}
