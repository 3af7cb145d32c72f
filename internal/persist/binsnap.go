package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"math"

	"cardirect/internal/config"
	"cardirect/internal/wal"
)

// Binary snapshot format: the one durable form of a snapshot generation,
// and the body a primary serves a bootstrapping replica. The paper's XML is
// what `cardirect` exports from it. The format encodes a whole document,
// Relation elements included; the snapshots persist and replication write
// carry none (the relation count is 0), but files from before the store
// computed relations on demand do, and still decode.
//
// File layout (all integers little-endian):
//
//	magic   [4]byte  "CDSN"
//	version uint16   format version (currently 2; 1 still decodes)
//	flags   uint16   reserved, zero
//	length  uint64   payload length in bytes
//	payload [length]byte
//	crc     uint32   CRC-32C (Castagnoli) of version|flags|length|payload
//
// The CRC covers the header fields after the magic, so a bit flip anywhere
// but the magic itself fails the checksum (a flipped magic fails the magic
// check). The payload is the full-fidelity configuration document: strings
// are u32-length-prefixed UTF-8 carried verbatim (including the formatted
// Relation type and pct attributes, so a binary round-trip is byte-exact
// against the XML writer's output), and coordinates are IEEE-754 bit
// patterns via math.Float64bits — no decimal formatting round-trip.
//
//	payload := position str(name) str(file)
//	           u32(#regions)   region*
//	           u32(#relations) relation*
//	position := str(epoch) u64(seq) u64(gen) u32(pct)
//	region   := str(id) str(name) str(color) u32(#polygons) polygon*
//	polygon  := str(id) u32(#vertices) (u64(xbits) u64(ybits))*
//	relation := str(type) str(primary) str(reference) str(pct)
//
// The position (version 2, see Position) is empty in a primary's own
// snapshots and absent from a version 1 file.
const (
	// magic opens every binary snapshot, so Load tells one from the paper's
	// XML.
	magic      = "CDSN"
	binVersion = 2
	// binHeaderLen is magic + version + flags + payload length.
	binHeaderLen = 4 + 2 + 2 + 8
)

func binSnapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%08d.bin", seq) }

// binWriter accumulates the payload encoding.
type binWriter struct{ buf []byte }

func (w *binWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *binWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Position is where a replica's world stands in its primary's stream: the
// epoch, the last edit's seq, the generation after it, and the primary's
// StoreOptions.Pct. Recorded in the snapshot a replica installs, it lands
// in one rename with the world it describes. An empty Epoch is no position.
type Position struct {
	Epoch    string
	Seq, Gen uint64
	Pct      bool
}

// EncodeSnapshot serialises the document into the framed binary snapshot
// format (magic, version, length, CRC-32C) with no position;
// DecodeSnapshot is the inverse.
func EncodeSnapshot(img *config.Image) []byte { return EncodeSnapshotAt(img, Position{}) }

// EncodeSnapshotAt is EncodeSnapshot for a world at pos, as a primary
// streams it to a bootstrapping replica.
func EncodeSnapshotAt(img *config.Image, pos Position) []byte {
	var w binWriter
	w.str(pos.Epoch)
	w.u64(pos.Seq)
	w.u64(pos.Gen)
	var pct uint32
	if pos.Pct {
		pct = 1
	}
	w.u32(pct)
	w.str(img.Name)
	w.str(img.File)
	w.u32(uint32(len(img.Regions)))
	for i := range img.Regions {
		r := &img.Regions[i]
		w.str(r.ID)
		w.str(r.Name)
		w.str(r.Color)
		w.u32(uint32(len(r.Polygons)))
		for j := range r.Polygons {
			p := &r.Polygons[j]
			w.str(p.ID)
			w.u32(uint32(len(p.Edges)))
			for _, e := range p.Edges {
				w.u64(math.Float64bits(e.X))
				w.u64(math.Float64bits(e.Y))
			}
		}
	}
	w.u32(uint32(len(img.Relations)))
	for i := range img.Relations {
		rel := &img.Relations[i]
		w.str(rel.Type)
		w.str(rel.Primary)
		w.str(rel.Reference)
		w.str(rel.Pct)
	}

	payload := w.buf
	out := make([]byte, 0, binHeaderLen+len(payload)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, binVersion)
	out = binary.LittleEndian.AppendUint16(out, 0) // flags
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, wal.Checksum(out[4:]))
	return out
}

// binReader is the bounds-checked payload cursor; the first failed read
// latches an error and turns every further read into a zero-value no-op,
// so decode loops need a single error check at the end.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("persist: binary snapshot truncated reading %s at offset %d", what, r.off)
	}
}

func (r *binReader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *binReader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a u32 element count and sanity-bounds it against the bytes
// remaining: each element of any list costs at least min bytes, so a count
// that cannot fit is corruption, not a huge allocation.
func (r *binReader) count(what string, min int) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || n*min > len(r.buf)-r.off {
		r.fail(what + " count")
		return 0
	}
	return n
}

// DecodeSnapshot verifies the framing (magic, version, length, CRC) of a
// binary snapshot as produced by EncodeSnapshot and decodes the payload into
// a configuration document. It does not validate the document; config.Track
// does, when recovery or a replica tracks it.
func DecodeSnapshot(data []byte) (*config.Image, error) {
	img, _, err := decodeSnapshot(data)
	return img, err
}

// Load reads a configuration in either of its two forms, told apart by
// the magic: a binary snapshot, decoded as DecodeSnapshot does (a
// replica's recorded Position is dropped, so what it seeds is a new
// world), or else the paper's XML. cardirectd -config, cardirect -in and
// the facade's LoadImage read through it.
func Load(data []byte) (*config.Image, error) {
	if bytes.HasPrefix(data, []byte(magic)) {
		return DecodeSnapshot(data)
	}
	return config.Parse(data)
}

// decodeSnapshot is DecodeSnapshot, returning the snapshot's position too.
func decodeSnapshot(data []byte) (*config.Image, Position, error) {
	var pos Position
	if len(data) < binHeaderLen+4 {
		return nil, pos, fmt.Errorf("persist: binary snapshot too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, pos, fmt.Errorf("persist: bad binary snapshot magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint16(data[4:])
	payloadLen := binary.LittleEndian.Uint64(data[8:])
	if uint64(len(data)) != binHeaderLen+payloadLen+4 {
		return nil, pos, fmt.Errorf("persist: binary snapshot length mismatch: header says %d payload bytes, file has %d",
			payloadLen, len(data)-binHeaderLen-4)
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := wal.Checksum(data[4 : len(data)-4]); got != want {
		return nil, pos, fmt.Errorf("persist: binary snapshot checksum mismatch: %08x != %08x", got, want)
	}
	if version != 1 && version != binVersion {
		return nil, pos, fmt.Errorf("persist: unsupported binary snapshot version %d", version)
	}

	r := &binReader{buf: data[binHeaderLen : len(data)-4]}
	if version == binVersion {
		pos.Epoch = r.str("position epoch")
		pos.Seq = r.u64("position seq")
		pos.Gen = r.u64("position generation")
		pos.Pct = r.u32("position pct") != 0
	}
	img := &config.Image{XMLName: xml.Name{Local: "Image"}}
	img.Name = r.str("image name")
	img.File = r.str("image file")
	img.Regions = make([]config.Region, r.count("regions", 16))
	for i := range img.Regions {
		reg := &img.Regions[i]
		reg.ID = r.str("region id")
		reg.Name = r.str("region name")
		reg.Color = r.str("region color")
		reg.Polygons = make([]config.Polygon, r.count("polygons", 8))
		for j := range reg.Polygons {
			p := &reg.Polygons[j]
			p.ID = r.str("polygon id")
			p.Edges = make([]config.Edge, r.count("vertices", 16))
			for k := range p.Edges {
				p.Edges[k].X = math.Float64frombits(r.u64("vertex x"))
				p.Edges[k].Y = math.Float64frombits(r.u64("vertex y"))
			}
		}
	}
	// A regions-only snapshot decodes to a nil list, like the XML path.
	if n := r.count("relations", 16); n > 0 {
		img.Relations = make([]config.Relation, n)
	}
	for i := range img.Relations {
		rel := &img.Relations[i]
		rel.Type = r.str("relation type")
		rel.Primary = r.str("relation primary")
		rel.Reference = r.str("relation reference")
		rel.Pct = r.str("relation pct")
	}
	if r.err != nil {
		return nil, pos, r.err
	}
	if r.off != len(r.buf) {
		return nil, pos, fmt.Errorf("persist: binary snapshot has %d trailing payload bytes", len(r.buf)-r.off)
	}
	return img, pos, nil
}
