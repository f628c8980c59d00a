// Package storage is the durable layer under internal/rel: it
// serializes each table's columnar state (typed vectors, null bitmaps,
// string dictionaries) into versioned,
// checksummed chunked segment files, records the schema and the chosen
// physical design in a manifest, and reopens the whole store with lazy
// chunk-by-chunk loading plus a redo log so appends replay
// deterministically across restarts. Open reads exactly the formats
// Save writes; any other version is ErrUnsupportedFormat.
//
// Durability model: Save writes every segment, then the redo log, then
// the manifest last (via rename). A crash mid-save leaves no readable
// manifest, so Open fails cleanly rather than serving a partial store.
// Every file carries a CRC32-C checksum; Open and segment loads verify
// checksums, sizes, and structural invariants before any data is
// served — corruption is an error at open/load time, never a wrong
// query answer.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/rel"
)

// envelopeSize is the fixed byte cost of the envelope shared by every
// storage file: magic (4 bytes) | u32 version | u64 payload length |
// u32 CRC32-C of payload | payload.
const envelopeSize = 4 + 4 + 8 + 4

// crcTable is the Castagnoli polynomial table shared by every
// checksum in the store.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wrapEnvelope frames a payload with magic, version, length, and
// checksum.
func wrapEnvelope(magic [4]byte, version uint32, payload []byte) []byte {
	out := append(beginEnvelope(make([]byte, 0, envelopeSize+len(payload)), magic, version), payload...)
	endEnvelope(out, 0)
	return out
}

// beginEnvelope appends an envelope header whose length and checksum
// are left zero, for endEnvelope to fill in once the payload follows it.
func beginEnvelope(p []byte, magic [4]byte, version uint32) []byte {
	p = append(p, magic[:]...)
	p = binary.LittleEndian.AppendUint32(p, version)
	return append(p, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

// endEnvelope completes the envelope that begins at p[start]: its
// payload is everything after the header.
func endEnvelope(p []byte, start int) {
	payload := p[start+envelopeSize:]
	binary.LittleEndian.PutUint64(p[start+8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(p[start+16:], crc32.Checksum(payload, crcTable))
}

// envelopeLen checks a frame's size, magic, and version and returns the
// payload length its header declares. kind names the file type in
// errors ("manifest", "chunk"). Every file kind passes its version
// through here, so a past or future version of any of them is
// ErrUnsupportedFormat.
func envelopeLen(kind string, magic [4]byte, version uint32, data []byte) (uint64, error) {
	if len(data) < envelopeSize {
		return 0, fmt.Errorf("storage: %s truncated: %d bytes, need at least %d", kind, len(data), envelopeSize)
	}
	if [4]byte(data[:4]) != magic {
		return 0, fmt.Errorf("storage: not a %s (magic %q)", kind, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return 0, fmt.Errorf("%w: %s version %d, this build reads version %d", ErrUnsupportedFormat, kind, v, version)
	}
	return binary.LittleEndian.Uint64(data[8:16]), nil
}

// envelopePayload checks the frame's magic, version, and length and
// returns the payload without hashing it. Only a caller that has
// already verified a checksum over the whole frame may stop here (a
// chunk, whose directory entry hashes the frame, envelope CRC field
// included); everyone else goes through openEnvelope.
func envelopePayload(kind string, magic [4]byte, version uint32, data []byte) ([]byte, error) {
	n, err := envelopeLen(kind, magic, version, data)
	if err != nil {
		return nil, err
	}
	payload := data[envelopeSize:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("storage: %s payload length %d disagrees with file size (%d bytes after header)", kind, n, len(payload))
	}
	return payload, nil
}

// openEnvelope verifies the frame, payload checksum included, and
// returns the payload.
func openEnvelope(kind string, magic [4]byte, version uint32, data []byte) ([]byte, error) {
	payload, err := envelopePayload(kind, magic, version, data)
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("storage: %s checksum mismatch: file says %08x, payload hashes to %08x", kind, want, got)
	}
	return payload, nil
}

// appendString writes a uvarint-length-prefixed string.
func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// reader is a bounds-checked cursor over a payload. The first failure
// sticks in err and every later read returns zero values, so decode
// loops stay simple and can check err at their joins.
type reader struct {
	buf  []byte
	off  int
	kind string
	err  error
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) failf(format string, a ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("storage: corrupt %s at offset %d: %s", r.kind, r.off, fmt.Sprintf(format, a...))
	}
	return r.err
}

func (r *reader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.failf("truncated reading %s", what)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.failf("truncated reading %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.failf("truncated reading %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// take returns the next n bytes after one bounds check.
func (r *reader) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.failf("%s of %d bytes exceeds remaining payload %d", what, n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// fixed returns the bytes of a vector of n 8-byte little-endian
// elements: one bounds check for the whole vector, so the caller's
// conversion loop runs without per-element cursor or error checks.
func (r *reader) fixed(n uint64, what string) []byte {
	if r.err == nil && n > uint64(r.remaining())/8 {
		r.failf("%s of %d entries exceeds remaining payload %d", what, n, r.remaining())
	}
	return r.take(n*8, what)
}

// columnData decodes one column's data region — null bitmap and typed
// payload vector — into cs, whose Col is already set.
// Every allocation is sized by a count already checked against the
// remaining payload. With keep false the region is only walked: every
// bounds check runs, nothing is allocated, and cs is left as it was —
// how a chunk fault passes over the columns it does not need. Whatever
// is kept is copied out of r.buf, so the buffer may be reused.
func (r *reader) columnData(cs *rel.ColumnSnapshot, rows uint64, keep bool) {
	nwords := r.uvarint("bitmap word count")
	if b := r.fixed(nwords, "bitmap"); keep && len(b) > 0 {
		cs.NullWords = make([]uint64, nwords)
		for i := range cs.NullWords {
			cs.NullWords[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	switch cs.Col.Typ {
	case rel.TInt:
		if b := r.fixed(rows, "int vector"); keep && r.err == nil {
			cs.Ints = make([]int64, rows)
			for i := range cs.Ints {
				cs.Ints[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
	case rel.TFloat:
		if b := r.fixed(rows, "float vector"); keep && r.err == nil {
			cs.Floats = make([]float64, rows)
			for i := range cs.Floats {
				cs.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
	case rel.TString:
		dict := r.dict(keep)
		codes := r.codes(rows, keep)
		if keep {
			cs.Dict, cs.Codes = dict, codes
		}
	default:
		r.failf("unknown column type %d", cs.Col.Typ)
	}
}

// dict decodes a string dictionary: a first pass bounds-checks every
// length-prefixed entry and finds where the region ends, then the
// region becomes one string and the entries are sliced out of it — one
// allocation per dictionary instead of one per entry. With keep false
// it stops after the first pass.
func (r *reader) dict(keep bool) []string {
	dn := r.uvarint("dictionary size")
	if r.err == nil && dn > uint64(r.remaining()) {
		r.failf("dictionary of %d entries exceeds remaining payload %d", dn, r.remaining())
	}
	if r.err != nil || dn == 0 {
		return nil
	}
	start := r.off
	for i := uint64(0); i < dn && r.err == nil; i++ {
		r.take(r.uvarint("dictionary entry length"), "dictionary entry")
	}
	if r.err != nil || !keep {
		return nil
	}
	region := string(r.buf[start:r.off])
	dict := make([]string, dn)
	off := start
	for i := range dict {
		n, w := binary.Uvarint(r.buf[off:])
		off += w
		dict[i] = region[off-start : off-start+int(n)]
		off += int(n)
	}
	return dict
}

// codes decodes a vector of uvarint dictionary codes. A code below 128
// is its own single byte and skips the varint decoder. With keep false
// the codes are read and checked but not stored.
func (r *reader) codes(rows uint64, keep bool) []uint32 {
	if r.err == nil && rows > uint64(r.remaining()) {
		r.failf("code vector of %d rows exceeds remaining payload %d", rows, r.remaining())
	}
	if r.err != nil {
		return nil
	}
	var codes []uint32
	if keep {
		codes = make([]uint32, rows)
	}
	for i := uint64(0); i < rows; i++ {
		c := uint64(0)
		if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
			c = uint64(r.buf[r.off])
			r.off++
		} else if c = r.uvarint("string code"); c > math.MaxUint32 {
			r.failf("string code %d overflows uint32", c)
		}
		if r.err != nil {
			return nil
		}
		if keep {
			codes[i] = uint32(c)
		}
	}
	return codes
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad varint reading %s", what)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad varint reading %s", what)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) str(what string) string {
	return string(r.take(r.uvarint(what+" length"), what))
}

// cell decodes one redo row's value of column c (see appendCell).
func (r *reader) cell(c *rel.Column) rel.Value {
	if c.Nullable {
		switch flag := r.byte("null flag"); flag {
		case 0:
		case 1:
			return rel.NullOf(c.Typ)
		default:
			r.failf("null flag %d of column %q is not a boolean", flag, c.Name)
			return rel.Value{}
		}
	}
	switch c.Typ {
	case rel.TInt:
		return rel.Int(r.varint("int value"))
	case rel.TFloat:
		return rel.Float(math.Float64frombits(r.u64("float value")))
	}
	return rel.Str(r.str("string value"))
}
