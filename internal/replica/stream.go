// Package replica implements WAL-shipped read replication. An edit is a
// []wal.Record from the HTTP edge to the store (Editor has the one method
// Apply): a Primary applies it through the editor below and retains the
// same slice as a framed replication record; an HTTP layer streams a
// binary snapshot plus the record tail to followers; a Replica bootstraps
// from the snapshot, tails the stream, and hands each record's slice to
// config.Tracked.Apply, the op switch the primary's edits went through. A
// Router in front forwards writes to the primary and round-robins reads
// across healthy replicas.
//
// Replication stream layout (all integers little-endian). A record is one
// wal OpEdit frame — the frame's CRC covers seq and gen as well as the
// edits, and the edits are the edit's wal frames, byte for byte what a
// durable primary appends to its log for it:
//
//	stream  := "CDRS0004" frame*
//	frame   := length(uint32) crc(uint32, CRC32C of payload) payload
//	payload := wal.OpEdit(uint8) seq(uint64) gen(uint64) frame*
//
// seq is the primary's record sequence (1-based, per epoch); gen is the
// store generation immediately AFTER applying the record, so a follower can
// align its own generation — and therefore its ETags — byte-for-byte with
// the primary. One record carries one logical edit: a bulk ingest of k
// regions is ONE record with k wal frames, applied atomically, exactly as
// the primary applied it (and bumping the generation once, like AddBulk).
//
// A record is framed once, when the primary applies its edit, and decoded
// once, by DecodeStream (wal.ReadFrames: the intact prefix, the bytes it
// spans, a diagnostic for the first undecodable byte; arbitrary input
// never panics, FuzzReplicationStream). A replica with a data directory
// logs the frames as they arrived (persist.Store.Follow).
package replica

import (
	"encoding/binary"
	"fmt"

	"cardirect/internal/wal"
)

// StreamMagic is the 8-byte header identifying a replication stream.
// Primaries and replicas upgrade together: a stream of another version is
// refused at its header.
const StreamMagic = "CDRS0004"

// StreamRecord is one shipped edit batch.
type StreamRecord struct {
	// Seq is the primary's 1-based record sequence within its epoch.
	Seq uint64
	// Gen is the primary's store generation after applying this record.
	Gen uint64
	// Edits is the decoded edit batch. DecodeStream fills it; the records
	// a Primary serves leave it nil, since only Frame is shipped.
	Edits []wal.Record
	// Frame is the record's stream frame as it travels and is logged.
	Frame []byte
}

// frameRecord builds the stream frame of record seq, whose edit batch,
// framed by wal.AppendRecords, left the store at generation gen.
func frameRecord(seq, gen uint64, edits []byte) []byte {
	// The one error, ErrTooLarge, cannot arise: Primary.Apply refuses an
	// edit whose record would not fit before it applies the edit.
	frame, _ := wal.AppendEdit(make([]byte, 0, wal.FrameSize+wal.EditHeaderSize+len(edits)), seq, gen, edits)
	return frame
}

// frameGen reads the generation out of a record's stream frame.
func frameGen(frame []byte) uint64 {
	return binary.LittleEndian.Uint64(frame[wal.FrameSize+1+8:])
}

// EncodeStream serialises a record batch with the stream header, as served
// by GET /v1/replication/wal: the header, then each record's frame.
func EncodeStream(recs []StreamRecord) []byte {
	n := len(StreamMagic)
	for _, rec := range recs {
		n += len(rec.Frame)
	}
	buf := append(make([]byte, 0, n), StreamMagic...)
	for _, rec := range recs {
		buf = append(buf, rec.Frame...)
	}
	return buf
}

// DecodeStream decodes the intact prefix of a stream image. Like
// wal.Replay, corruption — a torn or bit-flipped tail — terminates the
// decode at the last intact record and is reported as a diagnostic, and
// validSize is the byte length of the intact prefix. A record is accepted
// only once its frame passes its CRC and its edits decode, so everything
// returned is applicable; each record's Frame aliases data.
func DecodeStream(data []byte) (recs []StreamRecord, validSize int64, corr *wal.Corruption) {
	off := len(StreamMagic)
	validSize, corr = wal.ReadFrames(data, StreamMagic, func(payload []byte) error {
		if len(payload) == 0 || wal.Op(payload[0]) != wal.OpEdit {
			return fmt.Errorf("replica: a stream record is not an edit")
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return err
		}
		end := off + wal.FrameSize + len(payload)
		recs = append(recs, StreamRecord{Seq: rec.Seq, Gen: rec.Gen, Edits: rec.Edits, Frame: data[off:end:end]})
		off = end
		return nil
	})
	return recs, validSize, corr
}
