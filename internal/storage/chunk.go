package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/obs"
	"repro/internal/rel"
)

// Chunked segment format (version 3), the only segment format this
// package reads or writes. It splits a table's rows into fixed-size
// chunks so the pager can load, verify, and evict them independently
// under a memory budget:
//
//	file      := directory | chunk...
//	directory := "XCSG" | u32 version | u64 len | u32 CRC | dirPayload
//	dirPayload:= str name | str parent |
//	             uvarint rowCount | uvarint chunkRows |
//	             uvarint ncols | colDesc... |
//	             uvarint nchunks | chunkRef...
//	colDesc   := str name | type byte | nullable byte |
//	             varint leafID | uvarint occurrence
//	chunkRef  := uvarint rows | uvarint size | u32(LE) CRC32-C
//	chunk     := "XCHK" | u32 version | u64 len | u32 CRC | chunkPayload
//	chunkPayload, per column in table order :=
//	             uvarint nullWords | u64 words... |
//	             typed vector (u64 ints/floats; TString:
//	               uvarint dictLen | str... | uvarint codes...)
//
// Chunks are laid out back to back immediately after the directory, so
// a chunkRef needs only rows, size, and CRC — offsets are running sums.
// Every chunk holds exactly chunkRows rows except the last, and
// chunkRows is a multiple of 64 so null-bitmap words slice and
// concatenate without shifting. String columns carry a local
// dictionary in first-appearance order within the chunk, making each
// chunk a self-contained, independently verifiable table fragment:
// per-chunk CRC, then bounds-checked decode, then rel's structural
// validation of each column (AdoptColumn). Open refuses a store of any
// other version with ErrUnsupportedFormat.
const ChunkSegmentVersion = 3

// DefaultChunkRows is the chunk size Save uses when Options.ChunkRows
// is zero. Must be a multiple of 64.
const DefaultChunkRows = 4096

var (
	chunkDirMagic = [4]byte{'X', 'C', 'S', 'G'}
	chunkMagic    = [4]byte{'X', 'C', 'H', 'K'}
)

// chunkRef locates one chunk inside a chunked segment file.
type chunkRef struct {
	// Rows is the number of rows in the chunk.
	Rows int
	// Off is the chunk's absolute file offset (derived, not stored).
	Off int64
	// Size is the chunk's full framed length in bytes.
	Size int64
	// CRC is the CRC32-C of the full framed chunk.
	CRC uint32
}

// chunkedDir is the parsed directory of a chunked segment.
type chunkedDir struct {
	Name      string
	Parent    string
	RowCount  int
	ChunkRows int
	Cols      []rel.Column
	Chunks    []chunkRef
	// DirLen is the framed directory length — the file offset where
	// the first chunk starts.
	DirLen int64
	// all lists every column index in order: the column set of a fetch
	// that wants whole chunks.
	all []int
}

// EncodeChunkedSegment serializes a snapshot into the chunked format
// with chunkRows rows per chunk (must be a positive multiple of 64).
// The encoding is deterministic: the same snapshot always yields the
// same bytes (dictionaries are in first-appearance order), which the
// golden-format tests pin.
func EncodeChunkedSegment(s *rel.TableSnapshot, chunkRows int) ([]byte, error) {
	refs, chunks, err := encodeChunks(s, chunkRows)
	if err != nil {
		return nil, err
	}
	return append(encodeChunkedDir(s.Name, s.Parent, s.RowCount, chunkRows, snapshotColumns(s), refs), chunks...), nil
}

// snapshotColumns lists a snapshot's column descriptors.
func snapshotColumns(s *rel.TableSnapshot) []rel.Column {
	cols := make([]rel.Column, len(s.Columns))
	for i := range s.Columns {
		cols[i] = s.Columns[i].Col
	}
	return cols
}

// encodeChunkedDir frames a segment directory over chunks laid out back
// to back in refs order.
func encodeChunkedDir(name, parent string, rows, chunkRows int, cols []rel.Column, refs []chunkRef) []byte {
	p := beginEnvelope(nil, chunkDirMagic, ChunkSegmentVersion)
	p = appendString(p, name)
	p = appendString(p, parent)
	p = binary.AppendUvarint(p, uint64(rows))
	p = binary.AppendUvarint(p, uint64(chunkRows))
	p = binary.AppendUvarint(p, uint64(len(cols)))
	for i := range cols {
		c := &cols[i]
		p = appendString(p, c.Name)
		p = append(p, byte(c.Typ), boolByte(c.Nullable))
		p = binary.AppendVarint(p, int64(c.LeafID))
		p = binary.AppendUvarint(p, uint64(c.Occurrence))
	}
	p = binary.AppendUvarint(p, uint64(len(refs)))
	for _, r := range refs {
		p = binary.AppendUvarint(p, uint64(r.Rows))
		p = binary.AppendUvarint(p, uint64(r.Size))
		p = binary.LittleEndian.AppendUint32(p, r.CRC)
	}
	endEnvelope(p, 0)
	return p
}

// encodeChunks writes the snapshot's rows as framed chunks of chunkRows
// rows, back to back into one buffer sized up front by chunksBound, and
// returns the buffer with one ref per chunk (Off left zero). Each chunk
// is written straight from the snapshot's column vectors: a chunk's
// null bitmap is its word-aligned run of the table's words, the last
// one masked as it is written, and a string column carries a local
// dictionary in first-appearance order within the chunk, which makes
// each chunk a self-contained table fragment.
func encodeChunks(s *rel.TableSnapshot, chunkRows int) ([]chunkRef, []byte, error) {
	if chunkRows <= 0 || chunkRows%64 != 0 {
		return nil, nil, fmt.Errorf("storage: chunk size %d is not a positive multiple of 64", chunkRows)
	}
	dictMax := 0
	for i := range s.Columns {
		dictMax = max(dictMax, len(s.Columns[i].Dict))
	}
	e := &chunkEncoder{local: make([]localCode, dictMax)}
	refs := make([]chunkRef, 0, (s.RowCount+chunkRows-1)/chunkRows)
	out := make([]byte, 0, chunksBound(s, chunkRows))
	for lo := 0; lo < s.RowCount; lo += chunkRows {
		hi := min(lo+chunkRows, s.RowCount)
		start := len(out)
		out = beginEnvelope(out, chunkMagic, ChunkSegmentVersion)
		for i := range s.Columns {
			var err error
			if out, err = e.appendColumn(out, s, i, lo, hi); err != nil {
				return nil, nil, err
			}
		}
		endEnvelope(out, start)
		refs = append(refs, chunkRef{
			Rows: hi - lo,
			Size: int64(len(out) - start),
			CRC:  crc32.Checksum(out[start:], crcTable),
		})
	}
	return refs, out, nil
}

// chunksBound is an upper bound on the bytes encodeChunks writes for s:
// every varint at its widest for its value, and a chunk's local
// dictionary no longer than either its rows' strings or the whole
// global dictionary.
func chunksBound(s *rel.TableSnapshot, chunkRows int) int {
	n := 0
	for lo := 0; lo < s.RowCount; lo += chunkRows {
		rows := min(chunkRows, s.RowCount-lo)
		words := (rows + 63) / 64
		n += envelopeSize + len(s.Columns)*(uvarintLen(uint64(words))+8*words) // bitmaps
	}
	for i := range s.Columns {
		cs := &s.Columns[i]
		if cs.Col.Typ != rel.TString {
			n += 8 * s.RowCount
			continue
		}
		dict := 0
		for _, ds := range cs.Dict {
			dict += uvarintLen(uint64(len(ds))) + len(ds)
		}
		for lo := 0; lo < s.RowCount; lo += chunkRows {
			hi := min(lo+chunkRows, s.RowCount)
			strs := 0
			for _, c := range cs.Codes[lo:hi] {
				if int(c) < len(cs.Dict) {
					strs += uvarintLen(uint64(len(cs.Dict[c]))) + len(cs.Dict[c])
				}
			}
			rows := hi - lo
			n += uvarintLen(uint64(rows)) + min(dict, strs) + rows*uvarintLen(uint64(rows))
		}
	}
	return n
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// chunkEncoder holds what encodeChunks reuses from chunk to chunk: a
// global-code to local-code array, whose entry is current only when its
// epoch is the encoder's (a new epoch resets the whole array at once),
// and the global codes of the chunk's local dictionary in local order.
type chunkEncoder struct {
	local []localCode
	epoch uint32
	order []uint32
}

type localCode struct{ epoch, code uint32 }

// appendColumn writes rows [lo, hi) of column ci — lo a multiple of 64
// — as one chunk column region.
func (e *chunkEncoder) appendColumn(p []byte, s *rel.TableSnapshot, ci, lo, hi int) ([]byte, error) {
	cs := &s.Columns[ci]
	rows := hi - lo
	words := cs.NullWords[lo/64 : lo/64+(rows+63)/64]
	p = binary.AppendUvarint(p, uint64(len(words)))
	for i, w := range words {
		if i == len(words)-1 && rows%64 != 0 {
			w &= 1<<uint(rows%64) - 1 // no bit past the chunk's last row
		}
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	switch cs.Col.Typ {
	case rel.TInt:
		for _, v := range cs.Ints[lo:hi] {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
	case rel.TFloat:
		for _, v := range cs.Floats[lo:hi] {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
	case rel.TString:
		if e.epoch++; e.epoch == 0 { // wrapped: no stale entry may look current
			clear(e.local)
			e.epoch = 1
		}
		// NULL rows keep code 0 without interning, mirroring colVec.append.
		order := e.order[:0]
		for r, gc := range cs.Codes[lo:hi] {
			if words[r/64]&(1<<uint(r%64)) != 0 {
				continue
			}
			if int(gc) >= len(cs.Dict) {
				return nil, fmt.Errorf("storage: row %d of %s.%s has code %d, dictionary size %d",
					lo+r, s.Name, cs.Col.Name, gc, len(cs.Dict))
			}
			if l := &e.local[gc]; l.epoch != e.epoch {
				*l = localCode{epoch: e.epoch, code: uint32(len(order))}
				order = append(order, gc)
			}
		}
		p = binary.AppendUvarint(p, uint64(len(order)))
		for _, gc := range order {
			p = appendString(p, cs.Dict[gc])
		}
		for r, gc := range cs.Codes[lo:hi] {
			c := uint32(0)
			if words[r/64]&(1<<uint(r%64)) == 0 {
				c = e.local[gc].code
			}
			p = binary.AppendUvarint(p, uint64(c))
		}
		e.order = order
	}
	return p, nil
}

// openEnvelopePrefix verifies an envelope that may be followed by more
// data (a chunked segment's directory). It returns the payload and the
// total framed length consumed.
func openEnvelopePrefix(kind string, magic [4]byte, version uint32, data []byte) (payload []byte, consumed int64, err error) {
	n, err := envelopeLen(kind, magic, version, data)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)-envelopeSize) {
		return nil, 0, fmt.Errorf("storage: %s payload length %d exceeds remaining %d bytes", kind, n, len(data)-envelopeSize)
	}
	payload = data[envelopeSize : envelopeSize+int(n)]
	want := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Errorf("storage: %s checksum mismatch: header says %08x, payload hashes to %08x", kind, want, got)
	}
	return payload, envelopeSize + int64(n), nil
}

// decodeChunkedDir parses and validates a chunked segment's directory.
// data may be the whole file or any prefix that covers the directory.
// It tolerates arbitrary input: every read is bounds-checked and
// allocation sizes are capped by the payload.
func decodeChunkedDir(data []byte) (*chunkedDir, error) {
	payload, consumed, err := openEnvelopePrefix("chunked segment directory", chunkDirMagic, ChunkSegmentVersion, data)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload, kind: "chunked segment directory"}
	d := &chunkedDir{DirLen: consumed}
	d.Name = r.str("table name")
	d.Parent = r.str("parent name")
	rows := r.uvarint("row count")
	chunkRows := r.uvarint("chunk size")
	ncols := r.uvarint("column count")
	if r.err != nil {
		return nil, r.err
	}
	if d.Name == "" {
		return nil, r.failf("table name is empty")
	}
	if rows > math.MaxInt32 {
		return nil, r.failf("row count %d is implausible", rows)
	}
	d.RowCount = int(rows)
	if chunkRows == 0 || chunkRows%64 != 0 || chunkRows > math.MaxInt32 {
		return nil, r.failf("chunk size %d is not a positive multiple of 64", chunkRows)
	}
	d.ChunkRows = int(chunkRows)
	if ncols > uint64(r.remaining()) {
		return nil, r.failf("column count %d exceeds remaining payload %d", ncols, r.remaining())
	}
	d.Cols = make([]rel.Column, 0, ncols)
	names := make(map[string]bool, ncols)
	for i := uint64(0); i < ncols && r.err == nil; i++ {
		var c rel.Column
		c.Name = r.str("column name")
		typ := r.byte("column type")
		nullable := r.byte("nullable flag")
		if r.err != nil {
			return nil, r.err
		}
		switch rel.Type(typ) {
		case rel.TInt, rel.TFloat, rel.TString:
		default:
			return nil, r.failf("unknown column type %d", typ)
		}
		if nullable > 1 {
			return nil, r.failf("nullable flag %d is not a boolean", nullable)
		}
		// A chunk fault adopts the columns it needs one at a time, so no
		// later link sees the column list whole: the names are checked
		// here, once per segment.
		switch {
		case c.Name == "":
			return nil, r.failf("column %d has an empty name", i)
		case names[c.Name]:
			return nil, r.failf("duplicate column %q", c.Name)
		}
		names[c.Name] = true
		c.Typ = rel.Type(typ)
		c.Nullable = nullable == 1
		c.LeafID = int(r.varint("leaf id"))
		c.Occurrence = int(r.uvarint("occurrence"))
		d.Cols = append(d.Cols, c)
		d.all = append(d.all, int(i))
	}
	nchunks := r.uvarint("chunk count")
	if r.err != nil {
		return nil, r.err
	}
	if nchunks > uint64(r.remaining()) {
		return nil, r.failf("chunk count %d exceeds remaining payload %d", nchunks, r.remaining())
	}
	wantChunks := uint64(0)
	if d.RowCount > 0 {
		wantChunks = uint64((d.RowCount + d.ChunkRows - 1) / d.ChunkRows)
	}
	if nchunks != wantChunks {
		return nil, r.failf("%d chunks for %d rows at %d rows/chunk, want %d", nchunks, d.RowCount, d.ChunkRows, wantChunks)
	}
	d.Chunks = make([]chunkRef, 0, nchunks)
	off := consumed
	total := 0
	for i := uint64(0); i < nchunks && r.err == nil; i++ {
		var c chunkRef
		crows := r.uvarint("chunk rows")
		csize := r.uvarint("chunk bytes")
		c.CRC = r.u32("chunk crc")
		if r.err != nil {
			return nil, r.err
		}
		wantRows := uint64(d.ChunkRows)
		if i == nchunks-1 {
			wantRows = uint64(d.RowCount - int(i)*d.ChunkRows)
		}
		if crows != wantRows {
			return nil, r.failf("chunk %d holds %d rows, want %d", i, crows, wantRows)
		}
		if csize < envelopeSize || csize > math.MaxInt32 {
			return nil, r.failf("chunk %d size %d is impossible", i, csize)
		}
		c.Rows = int(crows)
		c.Size = int64(csize)
		c.Off = off
		off += c.Size
		total += c.Rows
		d.Chunks = append(d.Chunks, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, r.failf("%d trailing bytes after chunk directory", r.remaining())
	}
	if total != d.RowCount {
		return nil, r.failf("chunks hold %d rows, directory says %d", total, d.RowCount)
	}
	return d, nil
}

// fileSize returns the exact file length the directory implies:
// directory plus every chunk, back to back.
func (d *chunkedDir) fileSize() int64 {
	n := d.DirLen
	for i := range d.Chunks {
		n += d.Chunks[i].Size
	}
	return n
}

// decodeChunk parses and validates the columns cols (ascending column
// indices) of one chunk blob against the directory: the directory
// entry's CRC over the whole frame, the envelope's magic, version, and
// length (its own CRC field lies inside the frame the directory just
// hashed, so the payload is not hashed a second time), a bounds-checked
// walk of every column region, and for each column in cols a decode of
// its vectors and rel's structural validation (AdoptColumn, the check
// TableFromSnapshot runs). A column outside cols is walked
// with the same bounds checks and nothing is allocated for it. The
// returned fragment holds exactly the columns in cols, self-contained
// (local dictionary) and ready to
// scan: it is what the pager caches. Nothing in it points into blob.
// regions, when not nil, has one slot per column and receives the
// length of every column's encoded region, the bytes the pager charges
// a resident column.
func (d *chunkedDir) decodeChunk(k int, blob []byte, cols []int, regions []int64) (*rel.Table, error) {
	ref := &d.Chunks[k]
	if int64(len(blob)) != ref.Size {
		return nil, fmt.Errorf("storage: chunk %d of %s is %d bytes, directory says %d", k, d.Name, len(blob), ref.Size)
	}
	if got := crc32.Checksum(blob, crcTable); got != ref.CRC {
		return nil, fmt.Errorf("storage: chunk %d of %s checksum mismatch: directory says %08x, blob hashes to %08x", k, d.Name, ref.CRC, got)
	}
	payload, err := envelopePayload("chunk", chunkMagic, ChunkSegmentVersion, blob)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload, kind: "chunk"}
	t := rel.NewFragment(d.Name, d.Parent, d.Cols, ref.Rows)
	next := 0 // cursor over cols
	for ci, col := range d.Cols {
		keep := next < len(cols) && cols[next] == ci
		start := r.off
		cs := rel.ColumnSnapshot{Col: col}
		r.columnData(&cs, uint64(ref.Rows), keep)
		if r.err != nil {
			return nil, r.err
		}
		if regions != nil {
			regions[ci] = int64(r.off - start)
		}
		if !keep {
			continue
		}
		next++
		// Structural validation: a column must be a valid column of the
		// fragment in its own right (bitmap shape, dictionary
		// canonicality, zero payload under NULL) before any of its rows
		// are served or concatenated.
		if err := t.AdoptColumn(ci, &cs); err != nil {
			return nil, fmt.Errorf("storage: chunk %d of %s: %w", k, d.Name, err)
		}
	}
	if r.remaining() != 0 {
		return nil, r.failf("%d trailing bytes after chunk data", r.remaining())
	}
	if next != len(cols) {
		return nil, fmt.Errorf("storage: chunk %d of %s: column set %v is not ascending indices below %d", k, d.Name, cols, len(d.Cols))
	}
	return t, nil
}

// readChunk reads chunk k's frame from src into fr, one ReadAt, and
// decodes the columns cols of it through decodeChunk, recording every
// column region's length in fr.regions. A failed or short read counts
// under storage.read.errors, the bytes read under
// storage.segment.bytes_read, and a chunk that was read but does not
// verify (CRC, decode, structural validation) under
// storage.checksum.failures.
func (d *chunkedDir) readChunk(src io.ReaderAt, k int, cols []int, fr *frame, reg *obs.Registry) (*rel.Table, error) {
	ref := &d.Chunks[k]
	if int64(cap(fr.buf)) < ref.Size {
		fr.buf = make([]byte, ref.Size)
	}
	blob := fr.buf[:ref.Size]
	if _, err := src.ReadAt(blob, ref.Off); err != nil {
		reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading chunk %d of %s at offset %d: %w", k, d.Name, ref.Off, err)
	}
	reg.Counter("storage.segment.bytes_read").Add(ref.Size)
	if cap(fr.regions) < len(d.Cols) {
		fr.regions = make([]int64, len(d.Cols))
	}
	fr.regions = fr.regions[:len(d.Cols)]
	tab, err := d.decodeChunk(k, blob, cols, fr.regions)
	if err != nil {
		reg.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	return tab, nil
}

// readChunks reads chunks from.. of the segment d describes through
// src, each by readChunk into one pooled frame, and joins the chunk
// fragments, with tail as the last part unless it is nil, into one
// table by rel.Concat. src is not touched when from is the chunk count.
func (d *chunkedDir) readChunks(src io.ReaderAt, from int, tail *rel.Table, reg *obs.Registry) (*rel.Table, error) {
	parts := make([]*rel.Table, 0, len(d.Chunks)-from+1)
	fr := frames.Get().(*frame)
	defer frames.Put(fr)
	for k := from; k < len(d.Chunks); k++ {
		frag, err := d.readChunk(src, k, d.all, fr, reg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, frag)
	}
	if tail != nil {
		parts = append(parts, tail)
	}
	return rel.Concat(d.Name, d.Parent, d.Cols, parts...), nil
}

// DecodeChunkedSegment parses a whole chunked segment file back into
// the table it holds: the directory, then readChunks over the file's
// bytes. The native fuzz target FuzzChunkDecode hammers this entry
// point.
func DecodeChunkedSegment(data []byte) (*rel.Table, error) {
	d, err := decodeChunkedDir(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != d.fileSize() {
		return nil, fmt.Errorf("storage: chunked segment %s is %d bytes, directory implies %d", d.Name, len(data), d.fileSize())
	}
	return d.readChunks(bytes.NewReader(data), 0, nil, nil)
}
