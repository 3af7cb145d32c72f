// Package wal implements the write-ahead log of the durable persistence
// subsystem: an append-only file of region-edit records (add, remove,
// rename, set-geometry) with length-prefixed CRC32C framing, so that a
// reader can replay an intact prefix of a log whose tail was torn by a
// crash — a truncated or bit-flipped tail is detected and discarded, never
// a fatal error.
//
// On-disk layout:
//
//	file   := header record*
//	header := "CDWAL001" (8 bytes)
//	record := length(uint32 LE, payload bytes) crc(uint32 LE, CRC32C of payload) payload
//
// The payload starts with a one-byte opcode followed by the op's fields:
// strings are uvarint-length-prefixed UTF-8, geometries are a uvarint
// polygon count, then per polygon a uvarint vertex count and 16 bytes
// (two little-endian float64 bit patterns) per vertex — an exact, lossless
// encoding of the coordinates.
//
// Durability is configurable per Writer: SyncAlways fsyncs after every
// append (every acked edit survives power loss), SyncInterval fsyncs a
// record within one interval of its append (bounded loss window, amortised
// cost), SyncNever leaves flushing to the OS (benchmarks, bulk loads).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"cardirect/internal/geom"
)

// Magic is the 8-byte file header identifying a cardirect WAL.
const Magic = "CDWAL001"

// frameSize is the per-record framing overhead: length + CRC.
const frameSize = 8

// MaxPayload bounds a single record's payload, protecting the reader from
// allocating garbage lengths out of a corrupt frame.
const MaxPayload = 64 << 20

// castagnoli is the CRC32C table (the polynomial used by iSCSI, ext4 and
// most storage formats — better burst-error detection than IEEE).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op identifies a region edit.
type Op uint8

const (
	// OpAdd introduces a region (id, display name, colour, geometry).
	OpAdd Op = iota + 1
	// OpRemove deletes a region by id.
	OpRemove
	// OpRename changes a region's id.
	OpRename
	// OpSetGeometry replaces a region's geometry.
	OpSetGeometry
	opEnd // first invalid opcode
)

// String names the op for logs.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	case OpSetGeometry:
		return "set-geometry"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one logged region edit. Field usage by op:
//
//	OpAdd:         ID, Name, Color, Geometry
//	OpRemove:      ID
//	OpRename:      ID (old), NewID
//	OpSetGeometry: ID, Geometry
type Record struct {
	Op       Op
	ID       string
	NewID    string
	Name     string
	Color    string
	Geometry geom.Region
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acked edit survives a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs a record at most Options.Interval after its
	// append: an append syncs once the oldest unsynced record is that old,
	// and the owner syncs a log gone quiet when SyncDue says so. Bounded
	// loss window at amortised cost.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

// String names the policy for flags and status output.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy reads a policy name as written by SyncPolicy.String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options configures a Writer.
type Options struct {
	// Policy selects the fsync discipline; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval deadline; values ≤ 0 mean one second.
	Interval time.Duration
}

// Metrics counts a writer's work; read them through Writer.Metrics.
type Metrics struct {
	// Records is the number of appended records.
	Records int64 `json:"records"`
	// Bytes is the number of bytes written, framing included.
	Bytes int64 `json:"bytes"`
	// Fsyncs is the number of explicit fsync calls issued.
	Fsyncs int64 `json:"fsyncs"`
}

// Add accumulates m2 into m.
func (m *Metrics) Add(m2 Metrics) {
	m.Records += m2.Records
	m.Bytes += m2.Bytes
	m.Fsyncs += m2.Fsyncs
}

// Writer appends records to a log file. It is not safe for concurrent use;
// the owning store serialises appends.
type Writer struct {
	f   *os.File
	opt Options
	buf []byte
	m   Metrics
	// unsynced is when the oldest record not yet fsynced was appended; zero
	// when every appended record is synced.
	unsynced time.Time
}

// Create creates (or truncates) a fresh log at path, writing the header.
// The header and the file's existence are flushed to disk under SyncAlways;
// directory durability (the rename dance) is the caller's business.
func Create(path string, opt Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: writing header: %w", err)
	}
	w := newWriter(f, opt)
	w.m.Bytes += int64(len(Magic))
	if opt.Policy == SyncAlways {
		if err := w.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// OpenAppend opens an existing log for appending after its valid prefix:
// the file is truncated to validSize (as reported by ReplayFile), cutting
// off any torn tail, and subsequent appends continue from there.
func OpenAppend(path string, validSize int64, opt Options) (*Writer, error) {
	if validSize < int64(len(Magic)) {
		// Nothing valid on disk (empty or headerless file): start fresh.
		return Create(path, opt)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return newWriter(f, opt), nil
}

func newWriter(f *os.File, opt Options) *Writer {
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	return &Writer{f: f, opt: opt}
}

// Append encodes and writes one record, fsyncing according to the policy.
// When Append returns nil under SyncAlways, the record is on stable
// storage. It is the one-record case of AppendBatch: frame and payload go
// to the file in a single write, so a record is never split across two
// syscalls.
func (w *Writer) Append(rec Record) error {
	return w.AppendBatch([]Record{rec})
}

// AppendBatch encodes and writes recs as one contiguous byte run — one
// buffer build, one write syscall, and (policy permitting) ONE fsync for
// the whole batch, which is what makes bulk ingest of 10^5 regions
// feasible under SyncAlways. Either the whole batch is handed to the file
// or none of it; on a short write the torn tail is cut off by CRC framing
// at the next recovery.
func (w *Writer) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := w.buf[:0]
	for _, rec := range recs {
		start := len(buf)
		buf = append(buf, make([]byte, frameSize)...)
		buf = appendRecord(buf, rec)
		payload := buf[start+frameSize:]
		if len(payload) > MaxPayload {
			w.buf = buf[:0]
			return fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), MaxPayload)
		}
		frameLen(buf[start:start+frameSize], payload)
	}
	w.buf = buf // reuse the grown buffer next time
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: appending: %w", err)
	}
	w.m.Records += int64(len(recs))
	w.m.Bytes += int64(len(buf))
	switch w.opt.Policy {
	case SyncAlways:
		return w.Sync()
	case SyncInterval:
		if w.unsynced.IsZero() {
			w.unsynced = time.Now()
		} else if time.Since(w.unsynced) >= w.opt.Interval {
			return w.Sync()
		}
	}
	return nil
}

// SyncDue reports, under SyncInterval, how long until the oldest record not
// yet fsynced is due for its fsync (≤ 0: overdue); ok is false when every
// appended record is synced. An owner whose appends stop must Sync when the
// time comes, since no later append will.
func (w *Writer) SyncDue() (d time.Duration, ok bool) {
	if w.opt.Policy != SyncInterval || w.unsynced.IsZero() {
		return 0, false
	}
	return w.opt.Interval - time.Since(w.unsynced), true
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.m.Fsyncs++
	w.unsynced = time.Time{}
	return nil
}

// Metrics returns the writer's cumulative counters.
func (w *Writer) Metrics() Metrics { return w.m }

// Size returns the current file size (header plus appended records).
func (w *Writer) Size() (int64, error) {
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close fsyncs (unless SyncNever) and closes the file.
func (w *Writer) Close() error {
	if w.opt.Policy != SyncNever {
		if err := w.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// Corruption describes why replay stopped before the end of a log. It is a
// diagnostic, not an error: a crash tears the tail of a log by design, and
// recovery proceeds with the intact prefix.
type Corruption struct {
	// Offset is the file offset of the first undecodable byte.
	Offset int64
	// Reason says what was wrong (short read, CRC mismatch, bad frame...).
	Reason string
}

func (c *Corruption) String() string {
	return fmt.Sprintf("offset %d: %s", c.Offset, c.Reason)
}

// ReplayFile reads every intact record of the log at path. A missing file
// yields no records and no corruption (a log that was never started is an
// empty log). Corruption — a torn or bit-flipped tail — terminates the
// replay at the last intact record and is reported in corr; err is reserved
// for I/O failures. validSize is the offset of the end of the intact
// prefix, suitable for OpenAppend.
func ReplayFile(path string) (recs []Record, validSize int64, corr *Corruption, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil, nil
	}
	if err != nil {
		return nil, 0, nil, err
	}
	recs, validSize, corr = Replay(data)
	return recs, validSize, corr, nil
}

// Replay decodes the intact prefix of a log image. See ReplayFile.
func Replay(data []byte) (recs []Record, validSize int64, corr *Corruption) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, 0, &Corruption{Offset: 0, Reason: "bad or truncated header"}
	}
	off := int64(len(Magic))
	rest := data[len(Magic):]
	for len(rest) > 0 {
		if len(rest) < frameSize {
			return recs, off, &Corruption{Offset: off, Reason: fmt.Sprintf("torn frame: %d trailing bytes", len(rest))}
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxPayload {
			return recs, off, &Corruption{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit", n)}
		}
		if int(n) > len(rest)-frameSize {
			return recs, off, &Corruption{Offset: off, Reason: fmt.Sprintf("torn record: frame wants %d bytes, %d remain", n, len(rest)-frameSize)}
		}
		payload := rest[frameSize : frameSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, &Corruption{Offset: off, Reason: "CRC mismatch"}
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame checksummed correctly but the payload does not
			// decode — a writer bug or version skew, not a torn tail; still
			// handled the same way: keep the intact prefix.
			return recs, off, &Corruption{Offset: off, Reason: err.Error()}
		}
		recs = append(recs, rec)
		step := int64(frameSize) + int64(n)
		off += step
		rest = rest[step:]
	}
	return recs, off, nil
}

// EncodeRecord encodes rec's payload — the bytes between the frame header
// and the next frame — exactly as Append frames it. Replication ships these
// payloads over its own framing; DecodeRecord is the inverse.
func EncodeRecord(rec Record) []byte {
	return appendRecord(nil, rec)
}

// DecodeRecord decodes one payload as produced by EncodeRecord (or found
// inside a log frame). Arbitrary input returns an error, never panics.
func DecodeRecord(payload []byte) (Record, error) {
	return decodeRecord(payload)
}

// frameLen fills the 8-byte frame header (length + CRC32C) for payload.
func frameLen(frame []byte, payload []byte) {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// appendRecord encodes rec's payload onto buf.
func appendRecord(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Op))
	appendString := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	switch rec.Op {
	case OpAdd:
		appendString(rec.ID)
		appendString(rec.Name)
		appendString(rec.Color)
		buf = appendGeometry(buf, rec.Geometry)
	case OpRemove:
		appendString(rec.ID)
	case OpRename:
		appendString(rec.ID)
		appendString(rec.NewID)
	case OpSetGeometry:
		appendString(rec.ID)
		buf = appendGeometry(buf, rec.Geometry)
	}
	return buf
}

// appendGeometry encodes a region: polygon count, then per polygon the
// vertex count and raw float64 bits per vertex (lossless).
func appendGeometry(buf []byte, g geom.Region) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(g)))
	for _, p := range g {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, v := range p {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Y))
		}
	}
	return buf
}

// decodeRecord decodes one payload. Every length is validated against the
// remaining bytes before allocation, so arbitrary input cannot blow up
// memory or panic — the contract FuzzWALReplay enforces.
func decodeRecord(payload []byte) (Record, error) {
	d := decoder{rest: payload}
	op, err := d.byte()
	if err != nil {
		return Record{}, err
	}
	rec := Record{Op: Op(op)}
	if rec.Op == 0 || rec.Op >= opEnd {
		return Record{}, fmt.Errorf("wal: unknown opcode %d", op)
	}
	switch rec.Op {
	case OpAdd:
		if rec.ID, err = d.string(); err == nil {
			if rec.Name, err = d.string(); err == nil {
				if rec.Color, err = d.string(); err == nil {
					rec.Geometry, err = d.geometry()
				}
			}
		}
	case OpRemove:
		rec.ID, err = d.string()
	case OpRename:
		if rec.ID, err = d.string(); err == nil {
			rec.NewID, err = d.string()
		}
	case OpSetGeometry:
		if rec.ID, err = d.string(); err == nil {
			rec.Geometry, err = d.geometry()
		}
	}
	if err != nil {
		return Record{}, err
	}
	if len(d.rest) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(d.rest))
	}
	return rec, nil
}

// decoder is a bounds-checked payload reader.
type decoder struct {
	rest []byte
}

var errShort = errors.New("wal: record truncated")

func (d *decoder) byte() (byte, error) {
	if len(d.rest) < 1 {
		return 0, errShort
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.rest)
	if n <= 0 {
		return 0, errShort
	}
	d.rest = d.rest[n:]
	return v, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.rest)) {
		return "", errShort
	}
	s := string(d.rest[:n])
	d.rest = d.rest[n:]
	return s, nil
}

func (d *decoder) geometry() (geom.Region, error) {
	np, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each polygon needs at least one count byte; cheap upper bound before
	// allocating.
	if np > uint64(len(d.rest)) {
		return nil, errShort
	}
	g := make(geom.Region, 0, np)
	for i := uint64(0); i < np; i++ {
		nv, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nv > uint64(len(d.rest))/16 {
			return nil, errShort
		}
		p := make(geom.Polygon, 0, nv)
		for j := uint64(0); j < nv; j++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(d.rest[0:8]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(d.rest[8:16]))
			d.rest = d.rest[16:]
			p = append(p, geom.Pt(x, y))
		}
		g = append(g, p)
	}
	return g, nil
}
