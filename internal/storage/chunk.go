package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/rel"
)

// Chunked segment format (version 2), the only segment format this
// package reads or writes. It splits a table's rows into fixed-size
// chunks so the pager can load, verify, and evict them independently
// under a memory budget:
//
//	file      := directory | chunk...
//	directory := "XCSG" | u32 version | u64 len | u32 CRC | dirPayload
//	dirPayload:= str name | str parent | uvarint generation |
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
//	               uvarint dictLen | str... | uvarint codes...) |
//	             uvarint nexc | (uvarint row | value)...
//
// Chunks are laid out back to back immediately after the directory, so
// a chunkRef needs only rows, size, and CRC — offsets are running sums.
// Every chunk holds exactly chunkRows rows except the last, and
// chunkRows is a multiple of 64 so null-bitmap words slice and
// concatenate without shifting. String columns carry a local
// dictionary in first-appearance order within the chunk, making each
// chunk a self-contained, independently verifiable table fragment:
// per-chunk CRC, then bounds-checked decode, then full
// rel.TableFromSnapshot structural validation. Version 1 was a
// whole-table blob; Open refuses a store that still holds one with
// ErrUnsupportedFormat. The directory's generation is always its row
// count (a table only grows); a directory where it is not is refused,
// and the field stays until the next format version drops it.
const ChunkSegmentVersion = 2

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
	if chunkRows <= 0 || chunkRows%64 != 0 {
		return nil, fmt.Errorf("storage: chunk size %d is not a positive multiple of 64", chunkRows)
	}
	var refs []chunkRef
	var blobs []byte
	for lo := 0; lo < s.RowCount; lo += chunkRows {
		hi := lo + chunkRows
		if hi > s.RowCount {
			hi = s.RowCount
		}
		part, err := s.SliceSnapshot(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("storage: slicing chunk at row %d: %w", lo, err)
		}
		blob := wrapEnvelope(chunkMagic, ChunkSegmentVersion, encodeChunkPayload(part))
		refs = append(refs, chunkRef{
			Rows: hi - lo,
			Size: int64(len(blob)),
			CRC:  crc32.Checksum(blob, crcTable),
		})
		blobs = append(blobs, blob...)
	}

	var p []byte
	p = appendString(p, s.Name)
	p = appendString(p, s.Parent)
	p = binary.AppendUvarint(p, uint64(s.RowCount)) // generation: a table only grows
	p = binary.AppendUvarint(p, uint64(s.RowCount))
	p = binary.AppendUvarint(p, uint64(chunkRows))
	p = binary.AppendUvarint(p, uint64(len(s.Columns)))
	for i := range s.Columns {
		c := &s.Columns[i].Col
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
	return append(wrapEnvelope(chunkDirMagic, ChunkSegmentVersion, p), blobs...), nil
}

// encodeChunkPayload writes one chunk's column vectors. part is a
// self-contained slice snapshot (local dictionary). Every column ends
// with an empty exception section, which the reader requires.
func encodeChunkPayload(part *rel.TableSnapshot) []byte {
	var p []byte
	for i := range part.Columns {
		cs := &part.Columns[i]
		p = binary.AppendUvarint(p, uint64(len(cs.NullWords)))
		for _, w := range cs.NullWords {
			p = binary.LittleEndian.AppendUint64(p, w)
		}
		switch cs.Col.Typ {
		case rel.TInt:
			for _, v := range cs.Ints {
				p = binary.LittleEndian.AppendUint64(p, uint64(v))
			}
		case rel.TFloat:
			for _, v := range cs.Floats {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
			}
		case rel.TString:
			p = binary.AppendUvarint(p, uint64(len(cs.Dict)))
			for _, ds := range cs.Dict {
				p = appendString(p, ds)
			}
			for _, c := range cs.Codes {
				p = binary.AppendUvarint(p, uint64(c))
			}
		}
		p = binary.AppendUvarint(p, 0) // exception count
	}
	return p
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
	gen := r.uvarint("generation")
	rows := r.uvarint("row count")
	chunkRows := r.uvarint("chunk size")
	ncols := r.uvarint("column count")
	if r.err != nil {
		return nil, r.err
	}
	if rows > math.MaxInt32 {
		return nil, r.failf("row count %d is implausible", rows)
	}
	if gen != rows {
		return nil, r.failf("generation %d is not the row count %d", gen, rows)
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
		// are served or merged.
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

// mergeChunks reassembles a full-table snapshot from per-chunk
// snapshots in order. Numeric vectors and bitmap words concatenate
// directly (every chunk but the last holds a multiple of 64 rows);
// string columns re-intern each chunk's local dictionary in row order,
// which reproduces the original global first-appearance dictionary.
// The caller validates the
// result through rel.TableFromSnapshot.
func (d *chunkedDir) mergeChunks(parts []*rel.TableSnapshot) (*rel.TableSnapshot, error) {
	if len(parts) != len(d.Chunks) {
		return nil, fmt.Errorf("storage: merging %d chunks of %s, directory says %d", len(parts), d.Name, len(d.Chunks))
	}
	out := &rel.TableSnapshot{
		Name:     d.Name,
		Parent:   d.Parent,
		RowCount: d.RowCount,
		Columns:  make([]rel.ColumnSnapshot, len(d.Cols)),
	}
	dicts := make([]rel.Dict, len(d.Cols)) // the TString columns' global dictionaries
	for ci, col := range d.Cols {
		out.Columns[ci].Col = col
		if col.Typ == rel.TString {
			out.Columns[ci].Codes = make([]uint32, 0, d.RowCount)
		}
	}
	for pi, part := range parts {
		if part.RowCount != d.Chunks[pi].Rows || len(part.Columns) != len(d.Cols) {
			return nil, fmt.Errorf("storage: chunk %d of %s has shape %d rows / %d cols, directory says %d / %d",
				pi, d.Name, part.RowCount, len(part.Columns), d.Chunks[pi].Rows, len(d.Cols))
		}
		for ci := range d.Cols {
			cs := &part.Columns[ci]
			oc := &out.Columns[ci]
			oc.NullWords = append(oc.NullWords, cs.NullWords...)
			switch d.Cols[ci].Typ {
			case rel.TInt:
				oc.Ints = append(oc.Ints, cs.Ints...)
			case rel.TFloat:
				oc.Floats = append(oc.Floats, cs.Floats...)
			case rel.TString:
				for r := 0; r < part.RowCount; r++ {
					// NULL rows keep code 0 without interning,
					// mirroring colVec.append.
					if cs.NullWords[r/64]&(1<<uint(r%64)) != 0 {
						oc.Codes = append(oc.Codes, 0)
						continue
					}
					lc := cs.Codes[r]
					if int(lc) >= len(cs.Dict) {
						return nil, fmt.Errorf("storage: chunk %d of %s: row %d code %d exceeds local dictionary %d",
							pi, d.Name, r, lc, len(cs.Dict))
					}
					oc.Codes = append(oc.Codes, dicts[ci].Intern(cs.Dict[lc]))
				}
			}
		}
	}
	for ci := range d.Cols {
		if d.Cols[ci].Typ == rel.TString {
			out.Columns[ci].Dict = dicts[ci].Strs()
		}
	}
	return out, nil
}

// DecodeChunkedSegment parses a whole chunked segment file back into a
// full-table snapshot: directory, every chunk through the per-chunk
// verification chain, then reassembly. Callers must still run the
// result through rel.TableFromSnapshot; the native fuzz target
// FuzzChunkDecode hammers this entry point.
func DecodeChunkedSegment(data []byte) (*rel.TableSnapshot, error) {
	d, err := decodeChunkedDir(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != d.fileSize() {
		return nil, fmt.Errorf("storage: chunked segment %s is %d bytes, directory implies %d", d.Name, len(data), d.fileSize())
	}
	parts := make([]*rel.TableSnapshot, len(d.Chunks))
	for k := range d.Chunks {
		ref := &d.Chunks[k]
		part, err := d.decodeChunk(k, data[ref.Off:ref.Off+ref.Size], d.all, nil)
		if err != nil {
			return nil, err
		}
		parts[k] = part.Snapshot()
	}
	return d.mergeChunks(parts)
}
