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
// wal frame, so the frame's CRC covers seq and gen as well as the edits:
//
//	stream  := "CDRS0002" frame*
//	frame   := length(uint32) crc(uint32, CRC32C of payload) payload
//	payload := seq(uint64) gen(uint64) edits
//	edits   := count(uint32) (length(uint32) wal-record-payload)*
//
// seq is the primary's record sequence (1-based, per epoch); gen is the
// store generation immediately AFTER applying the record, so a follower can
// align its own generation — and therefore its ETags — byte-for-byte with
// the primary. One record carries one logical edit: a bulk ingest of k
// regions is ONE record with k wal payloads, applied atomically, exactly as
// the primary applied it (and bumping the generation once, like AddBulk).
//
// Decoding is the WAL's own frame reader (wal.ReadFrames): DecodeStream
// returns the intact prefix, the number of bytes it spans, and a diagnostic
// for the first undecodable byte — arbitrary input never panics
// (FuzzReplicationStream). A replica's cached tail.log is the same stream
// on disk.
package replica

import (
	"encoding/binary"
	"fmt"

	"cardirect/internal/wal"
)

// StreamMagic is the 8-byte header identifying a replication stream.
// Primaries and replicas upgrade together: a stream of another version is
// refused at its header.
const StreamMagic = "CDRS0002"

// recordHeaderSize is a record's seq and gen, ahead of its edits in the
// frame's payload.
const recordHeaderSize = 8 + 8

// maxEditsPerRecord bounds the edit count inside one record payload; a bulk
// ingest of 10^6 regions stays far below it, and it keeps a corrupt count
// from turning into a giant allocation.
const maxEditsPerRecord = 1 << 24

// StreamRecord is one shipped edit batch.
type StreamRecord struct {
	// Seq is the primary's 1-based record sequence within its epoch.
	Seq uint64
	// Gen is the primary's store generation after applying this record.
	Gen uint64
	// Payload is the encoded edit batch (EncodeEdits).
	Payload []byte
}

// EncodeEdits packs a batch of WAL records into one replication payload:
// a count followed by length-prefixed wal record payloads.
func EncodeEdits(recs []wal.Record) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, rec := range recs {
		p := wal.AppendRecord(nil, rec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// DecodeEdits is the inverse of EncodeEdits. Arbitrary input returns an
// error, never panics: every length is validated before allocation.
func DecodeEdits(payload []byte) ([]wal.Record, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("replica: edit batch truncated (%d bytes)", len(payload))
	}
	count := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if count > maxEditsPerRecord {
		return nil, fmt.Errorf("replica: edit count %d exceeds limit", count)
	}
	// Each edit costs at least 4 length bytes + 1 payload byte.
	if uint64(count)*5 > uint64(len(rest)) {
		return nil, fmt.Errorf("replica: edit count %d cannot fit in %d bytes", count, len(rest))
	}
	recs := make([]wal.Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("replica: edit %d length truncated", i)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("replica: edit %d wants %d bytes, %d remain", i, n, len(rest))
		}
		rec, err := wal.DecodeRecord(rest[:n])
		if err != nil {
			return nil, fmt.Errorf("replica: edit %d: %w", i, err)
		}
		recs = append(recs, rec)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("replica: %d trailing bytes after edit batch", len(rest))
	}
	return recs, nil
}

// EncodeStream serialises a record batch with the stream header, as served
// by GET /v1/replication/wal.
func EncodeStream(recs []StreamRecord) []byte {
	return appendStreamFrames([]byte(StreamMagic), recs)
}

// appendStreamFrames frames each record onto buf. Primary.Apply refuses an
// edit whose record would not fit a frame, and DecodeStream accepts none,
// so a record that does not fit is a bug.
func appendStreamFrames(buf []byte, recs []StreamRecord) []byte {
	for _, rec := range recs {
		var head [recordHeaderSize]byte
		binary.LittleEndian.PutUint64(head[0:], rec.Seq)
		binary.LittleEndian.PutUint64(head[8:], rec.Gen)
		var err error
		if buf, err = wal.AppendFrame(buf, head[:], rec.Payload); err != nil {
			panic(fmt.Sprintf("replica: record %d: %v", rec.Seq, err))
		}
	}
	return buf
}

// DecodeStream decodes the intact prefix of a stream image. Like
// wal.Replay, corruption — a torn or bit-flipped tail — terminates the
// decode at the last intact record and is reported as a diagnostic, and
// validSize is the byte length of the intact prefix. Record payloads are
// CRC-verified AND decoded as edit batches before a record is accepted, so
// everything returned is applicable.
func DecodeStream(data []byte) (recs []StreamRecord, validSize int64, corr *wal.Corruption) {
	validSize, corr = wal.ReadFrames(data, StreamMagic, func(payload []byte) error {
		if len(payload) < recordHeaderSize {
			return fmt.Errorf("replica: %d-byte record has no seq and gen", len(payload))
		}
		edits := payload[recordHeaderSize:]
		if _, err := DecodeEdits(edits); err != nil {
			return err
		}
		recs = append(recs, StreamRecord{
			Seq:     binary.LittleEndian.Uint64(payload[0:]),
			Gen:     binary.LittleEndian.Uint64(payload[8:]),
			Payload: edits,
		})
		return nil
	})
	return recs, validSize, corr
}
