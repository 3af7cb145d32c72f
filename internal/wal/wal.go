// Package wal implements the write-ahead log of the durable persistence
// subsystem: an append-only file of region-edit records (add, remove,
// rename, set-geometry) with length-prefixed CRC32C framing, so that a
// reader can replay an intact prefix of a log whose tail was torn by a
// crash — a truncated or bit-flipped tail is detected and discarded, never
// a fatal error.
//
// On-disk layout:
//
//	file   := header frame*
//	header := "CDWAL001" (8 bytes)
//	frame  := length(uint32 LE, payload bytes) crc(uint32 LE, CRC32C of payload) payload
//
// The frame is the module's only record framing: the replication stream is
// a header of its own followed by OpEdit frames (AppendEdit), whose payload
// carries an edit's record frames exactly as a primary's log holds them,
// and a replica's log holds those OpEdit frames as they arrived.
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

// FrameSize is the per-record framing overhead: length + CRC.
const FrameSize = 8

// MaxPayload bounds a single frame's payload, protecting the reader from
// allocating garbage lengths out of a corrupt frame.
const MaxPayload = 64 << 20

// maxPayload is the cap frames are built and read under: MaxPayload, which
// only tests lower.
var maxPayload = MaxPayload

// ErrTooLarge reports a payload over MaxPayload. Such a payload has no
// frame, so an edit that would need one is refused before it is applied.
var ErrTooLarge = errors.New("wal: payload exceeds the frame limit")

// castagnoli is the CRC32C table (the polynomial used by iSCSI, ext4 and
// most storage formats — better burst-error detection than IEEE).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C of data, the checksum of every format the module
// writes.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CheckPayload returns ErrTooLarge when n bytes cannot be one frame's
// payload.
func CheckPayload(n int) error {
	if n > maxPayload {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrTooLarge, n, maxPayload)
	}
	return nil
}

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
	// OpEdit is one replicated edit with its boundary: stream seq, the
	// generation after it, and its records. Edits do not nest.
	OpEdit
	opEnd // first invalid opcode
)

// EditHeaderSize is an OpEdit payload's opcode, seq and gen.
const EditHeaderSize = 1 + 8 + 8

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
	case OpEdit:
		return "edit"
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
//	OpEdit:        Seq, Gen, Edits
type Record struct {
	Op       Op
	ID       string
	NewID    string
	Name     string
	Color    string
	Geometry geom.Region
	Seq, Gen uint64
	Edits    []Record
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
	return Open(path, 0, opt)
}

// Open opens the log at path for appending after its first validSize bytes
// (as ReplayFile reports them), cutting off any torn tail. When validSize
// does not cover the header — nothing on disk is valid — the log starts
// afresh, as Create does.
func Open(path string, validSize int64, opt Options) (*Writer, error) {
	if validSize >= int64(len(Magic)) {
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
	frames, err := w.Encode(recs)
	if err != nil {
		return err
	}
	return w.AppendFrames(frames, len(recs))
}

// Encode frames recs, one frame per record, into the writer's reused
// buffer, for an AppendFrames that may follow; the frames stay valid until
// the next Encode, Append or AppendBatch. A record over MaxPayload returns
// ErrTooLarge.
func (w *Writer) Encode(recs []Record) ([]byte, error) {
	frames, err := AppendRecords(w.buf[:0], recs)
	w.buf = frames // reuse the grown buffer next time
	return frames, err
}

// AppendFrames writes n frames built by AppendRecords, AppendEdit or
// Encode as one write, fsyncing according to the policy.
func (w *Writer) AppendFrames(frames []byte, n int) error {
	if len(frames) == 0 {
		return nil
	}
	if _, err := w.f.Write(frames); err != nil {
		return fmt.Errorf("wal: appending: %w", err)
	}
	w.m.Records += int64(n)
	w.m.Bytes += int64(len(frames))
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
// prefix, suitable for Open.
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
	return readRecords(data, Magic, false)
}

// DecodeRecords decodes an edit's records: a headerless run of record frames
// as AppendRecords builds them, none of them an OpEdit. It is strict where
// Replay is forgiving: a torn frame, a CRC mismatch or an undecodable
// payload is an error, not the end of an intact prefix.
func DecodeRecords(frames []byte) ([]Record, error) {
	recs, _, corr := readRecords(frames, "", true)
	if corr != nil {
		return nil, fmt.Errorf("wal: record frames: %s", corr)
	}
	return recs, nil
}

// readRecords decodes the record frames that follow header in data, up to
// the first one that is torn, fails its CRC or does not decode, or — inside
// an edit — is an OpEdit.
func readRecords(data []byte, header string, inEdit bool) (recs []Record, validSize int64, corr *Corruption) {
	validSize, corr = ReadFrames(data, header, func(payload []byte) error {
		if inEdit && len(payload) > 0 && Op(payload[0]) == OpEdit {
			return errors.New("wal: an edit inside an edit")
		}
		rec, err := DecodeRecord(payload)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, validSize, corr
}

// ReadFrames walks the frames that follow header in data and hands each
// CRC-checked payload to accept, in order. It stops at the first frame that
// is torn, fails its CRC or that accept refuses — the frame checksummed
// correctly but its payload does not decode: a writer bug or version skew,
// not a torn tail, handled the same way — and reports why in corr. validSize
// is the byte length of the intact prefix, header included. Empty data is
// an empty file: no frames, no corruption.
func ReadFrames(data []byte, header string, accept func(payload []byte) error) (validSize int64, corr *Corruption) {
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) < len(header) || string(data[:len(header)]) != header {
		got := data[:min(len(data), len(header))]
		return 0, &Corruption{Offset: 0, Reason: fmt.Sprintf("header %q, want %q", got, header)}
	}
	off := int64(len(header))
	rest := data[len(header):]
	for len(rest) > 0 {
		if len(rest) < FrameSize {
			return off, &Corruption{Offset: off, Reason: fmt.Sprintf("torn frame: %d trailing bytes", len(rest))}
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if uint64(n) > uint64(maxPayload) {
			return off, &Corruption{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds limit", n)}
		}
		if int(n) > len(rest)-FrameSize {
			return off, &Corruption{Offset: off, Reason: fmt.Sprintf("torn record: frame wants %d bytes, %d remain", n, len(rest)-FrameSize)}
		}
		payload := rest[FrameSize : FrameSize+int(n)]
		if Checksum(payload) != sum {
			return off, &Corruption{Offset: off, Reason: "CRC mismatch"}
		}
		if err := accept(payload); err != nil {
			return off, &Corruption{Offset: off, Reason: err.Error()}
		}
		step := int64(FrameSize) + int64(n)
		off += step
		rest = rest[step:]
	}
	return off, nil
}

// appendFrame appends one frame onto buf whose payload is the concatenation
// of parts. A payload over MaxPayload appends nothing and returns
// ErrTooLarge.
func appendFrame(buf []byte, parts ...[]byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, FrameSize)...)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return sealFrame(buf, start)
}

// AppendRecords appends one frame per record onto buf: the bytes Append
// writes to the log, and what a replication record carries. A record over
// MaxPayload returns ErrTooLarge and buf as it was passed in.
func AppendRecords(buf []byte, recs []Record) ([]byte, error) {
	n := len(buf)
	for _, rec := range recs {
		start := len(buf)
		var err error
		if buf, err = appendRecord(append(buf, make([]byte, FrameSize)...), rec); err == nil {
			buf, err = sealFrame(buf, start)
		}
		if err != nil {
			return buf[:n], err
		}
	}
	return buf, nil
}

// AppendEdit appends the OpEdit frame of edit seq, which left the store at
// generation gen, onto buf; frames are its records as AppendRecords framed
// them. A payload over MaxPayload appends nothing (ErrTooLarge).
func AppendEdit(buf []byte, seq, gen uint64, frames []byte) ([]byte, error) {
	head := [EditHeaderSize]byte{byte(OpEdit)}
	binary.LittleEndian.PutUint64(head[1:], seq)
	binary.LittleEndian.PutUint64(head[9:], gen)
	return appendFrame(buf, head[:], frames)
}

// sealFrame fills in the header of the frame at buf[start:], whose payload
// runs to the end of buf, or cuts the frame off when the payload is too
// large.
func sealFrame(buf []byte, start int) ([]byte, error) {
	payload := buf[start+FrameSize:]
	if err := CheckPayload(len(payload)); err != nil {
		return buf[:start], err
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], Checksum(payload))
	return buf, nil
}

// appendRecord encodes rec's payload — the bytes between the frame header
// and the next frame — onto buf; DecodeRecord is the inverse. Only an
// OpEdit, whose records are frames of their own, can fail (ErrTooLarge).
func appendRecord(buf []byte, rec Record) ([]byte, error) {
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
	case OpEdit:
		buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, rec.Gen)
		return AppendRecords(buf, rec.Edits)
	}
	return buf, nil
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

// DecodeRecord decodes one frame's payload as appendRecord produced it. Every
// length is validated against the remaining bytes before allocation, so
// arbitrary input cannot blow up memory or panic — the contract
// FuzzWALReplay enforces.
func DecodeRecord(payload []byte) (Record, error) {
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
	case OpEdit:
		if len(d.rest) < EditHeaderSize-1 {
			return Record{}, errShort
		}
		rec.Seq = binary.LittleEndian.Uint64(d.rest)
		rec.Gen = binary.LittleEndian.Uint64(d.rest[8:])
		rec.Edits, err = DecodeRecords(d.rest[16:])
		d.rest = nil
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
