package replica

import (
	"bytes"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
)

// FuzzReplicationStream feeds arbitrary bytes to the replication frame
// decoder. Invariants (the wal.Replay contract, lifted to streams): no
// panic; validSize never exceeds the input; every accepted record's payload
// decodes as an edit batch; and the accepted prefix re-encodes to exactly
// the bytes it spans — so a replica that fsyncs a torn tail.log recovers
// precisely the records DecodeStream reports.
func FuzzReplicationStream(f *testing.F) {
	box := geom.Rgn(geom.Poly(geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}.Vertices()...))
	valid := EncodeStream([]StreamRecord{
		{Seq: 1, Gen: 2, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpAdd, ID: "a", Name: "Alpha", Color: "#ff0000", Geometry: box},
		})},
		{Seq: 2, Gen: 3, Payload: EncodeEdits([]wal.Record{
			{Op: wal.OpRemove, ID: "a"},
			{Op: wal.OpRename, ID: "b", NewID: "c"},
		})},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(StreamMagic))
	f.Add([]byte{})
	f.Add([]byte("CDRS0002garbagegarbagegarbage"))
	flipped := append([]byte(nil), valid...)
	flipped[len(StreamMagic)+4] ^= 0xff // corrupt the first record's CRC
	f.Add(flipped)
	flipped = append([]byte(nil), valid...)
	flipped[len(StreamMagic)+8+8] ^= 0x01 // and the first record's gen under it
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validSize, corr := DecodeStream(data)
		if validSize < 0 || validSize > int64(len(data)) {
			t.Fatalf("validSize %d out of range for %d input bytes", validSize, len(data))
		}
		for i, rec := range recs {
			if _, err := DecodeEdits(rec.Payload); err != nil {
				t.Fatalf("accepted record %d has undecodable payload: %v", i, err)
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
