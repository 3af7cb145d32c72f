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
// Replication stream layout (all integers little-endian):
//
//	stream := "CDRS0001" record*
//	record := seq(uint64) gen(uint64) length(uint32) crc(uint32, CRC32C of payload) payload
//	payload := count(uint32) (length(uint32) wal-record-payload)*
//
// seq is the primary's record sequence (1-based, per epoch); gen is the
// store generation immediately AFTER applying the record, so a follower can
// align its own generation — and therefore its ETags — byte-for-byte with
// the primary. One record carries one logical edit: a bulk ingest of k
// regions is ONE record with k wal payloads, applied atomically, exactly as
// the primary applied it (and bumping the generation once, like AddBulk).
//
// Decoding follows the WAL's torn-tail discipline: DecodeStream returns the
// intact prefix, the number of bytes it spans, and a diagnostic for the
// first undecodable byte — arbitrary input never panics (FuzzReplicationStream).
package replica

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"cardirect/internal/wal"
)

// StreamMagic is the 8-byte header identifying a replication stream.
const StreamMagic = "CDRS0001"

// streamFrameSize is the per-record framing overhead: seq + gen + length + crc.
const streamFrameSize = 8 + 8 + 4 + 4

// MaxStreamPayload bounds one record's payload, like wal.MaxPayload.
const MaxStreamPayload = 64 << 20

// maxEditsPerRecord bounds the edit count inside one record payload; a bulk
// ingest of 10^6 regions stays far below it, and it keeps a corrupt count
// from turning into a giant allocation.
const maxEditsPerRecord = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
		p := wal.EncodeRecord(rec)
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

// AppendStreamRecord frames one record onto buf (without the stream header).
func AppendStreamRecord(buf []byte, rec StreamRecord) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(rec.Payload, castagnoli))
	return append(buf, rec.Payload...)
}

// EncodeStream serialises a record batch with the stream header, as served
// by GET /v1/replication/wal.
func EncodeStream(recs []StreamRecord) []byte {
	buf := []byte(StreamMagic)
	for _, rec := range recs {
		buf = AppendStreamRecord(buf, rec)
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
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(StreamMagic) || string(data[:len(StreamMagic)]) != StreamMagic {
		return nil, 0, &wal.Corruption{Offset: 0, Reason: "bad or truncated stream header"}
	}
	off := int64(len(StreamMagic))
	rest := data[len(StreamMagic):]
	for len(rest) > 0 {
		if len(rest) < streamFrameSize {
			return recs, off, &wal.Corruption{Offset: off, Reason: fmt.Sprintf("torn frame: %d trailing bytes", len(rest))}
		}
		seq := binary.LittleEndian.Uint64(rest[0:8])
		gen := binary.LittleEndian.Uint64(rest[8:16])
		n := binary.LittleEndian.Uint32(rest[16:20])
		sum := binary.LittleEndian.Uint32(rest[20:24])
		if n > MaxStreamPayload {
			return recs, off, &wal.Corruption{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit", n)}
		}
		if int(n) > len(rest)-streamFrameSize {
			return recs, off, &wal.Corruption{Offset: off, Reason: fmt.Sprintf("torn record: frame wants %d bytes, %d remain", n, len(rest)-streamFrameSize)}
		}
		payload := rest[streamFrameSize : streamFrameSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, &wal.Corruption{Offset: off, Reason: "CRC mismatch"}
		}
		if _, err := DecodeEdits(payload); err != nil {
			return recs, off, &wal.Corruption{Offset: off, Reason: err.Error()}
		}
		recs = append(recs, StreamRecord{Seq: seq, Gen: gen, Payload: payload})
		step := int64(streamFrameSize) + int64(n)
		off += step
		rest = rest[step:]
	}
	return recs, off, nil
}
