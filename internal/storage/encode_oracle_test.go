package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/transform"
	"repro/internal/xmlgen"
)

// refEncode is the chunked segment encoder as it was written first,
// kept as the oracle for EncodeChunkedSegment: each chunk is sliced
// into a self-contained snapshot (refSlice), its payload is built in a
// buffer of its own and framed by copying, and the directory is framed
// the same way in front of the concatenated chunks.
func refEncode(s *rel.TableSnapshot, chunkRows int) ([]byte, error) {
	if chunkRows <= 0 || chunkRows%64 != 0 {
		return nil, fmt.Errorf("storage: chunk size %d is not a positive multiple of 64", chunkRows)
	}
	var refs []chunkRef
	var blobs []byte
	for lo := 0; lo < s.RowCount; lo += chunkRows {
		hi := min(lo+chunkRows, s.RowCount)
		part, err := refSlice(s, lo, hi)
		if err != nil {
			return nil, err
		}
		blob := wrapEnvelope(chunkMagic, ChunkSegmentVersion, refChunkPayload(part))
		refs = append(refs, chunkRef{Rows: hi - lo, Size: int64(len(blob)), CRC: crc32.Checksum(blob, crcTable)})
		blobs = append(blobs, blob...)
	}
	var p []byte
	p = appendString(p, s.Name)
	p = appendString(p, s.Parent)
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

// refSlice returns a self-contained snapshot of rows [lo, hi), lo a
// multiple of 64: the null bitmap's words sliced with the tail word
// masked, and string columns re-coded against a fresh local dictionary
// in first-appearance order within the slice.
func refSlice(s *rel.TableSnapshot, lo, hi int) (*rel.TableSnapshot, error) {
	rows := hi - lo
	out := &rel.TableSnapshot{Name: s.Name, Parent: s.Parent, RowCount: rows, Columns: make([]rel.ColumnSnapshot, len(s.Columns))}
	wantWords := (rows + 63) / 64
	for i := range s.Columns {
		cs := &s.Columns[i]
		oc := rel.ColumnSnapshot{Col: cs.Col}
		words := cs.NullWords[lo/64 : lo/64+wantWords]
		if tail := rows % 64; tail != 0 && wantWords > 0 {
			masked := append([]uint64(nil), words...)
			masked[wantWords-1] &= (uint64(1) << uint(tail)) - 1
			words = masked
		}
		oc.NullWords = words
		switch cs.Col.Typ {
		case rel.TInt:
			oc.Ints = cs.Ints[lo:hi]
		case rel.TFloat:
			oc.Floats = cs.Floats[lo:hi]
		case rel.TString:
			oc.Codes = make([]uint32, rows)
			local := make(map[string]uint32)
			for r := 0; r < rows; r++ {
				if words[r/64]&(1<<uint(r%64)) != 0 {
					continue
				}
				gc := cs.Codes[lo+r]
				if int(gc) >= len(cs.Dict) {
					return nil, fmt.Errorf("row %d code %d exceeds dictionary size %d", lo+r, gc, len(cs.Dict))
				}
				c, ok := local[cs.Dict[gc]]
				if !ok {
					c = uint32(len(oc.Dict))
					oc.Dict = append(oc.Dict, cs.Dict[gc])
					local[cs.Dict[gc]] = c
				}
				oc.Codes[r] = c
			}
		}
		out.Columns[i] = oc
	}
	return out, nil
}

// refChunkPayload writes a sliced chunk's column vectors.
func refChunkPayload(part *rel.TableSnapshot) []byte {
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
	}
	return p
}

// sameAsRef encodes snap at chunkRows through both encoders and
// requires the same bytes, and the one buffer encodeChunks sizes up
// front to have held every chunk without growing.
func sameAsRef(t *testing.T, label string, snap *rel.TableSnapshot, chunkRows int) {
	t.Helper()
	want, err := refEncode(snap, chunkRows)
	if err != nil {
		t.Fatalf("%s at %d: reference: %v", label, chunkRows, err)
	}
	got, err := EncodeChunkedSegment(snap, chunkRows)
	if err != nil {
		t.Fatalf("%s at %d: %v", label, chunkRows, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s at %d rows/chunk: %d bytes, reference encoder %d bytes; first difference at %d",
			label, chunkRows, len(got), len(want), firstDiff(got, want))
	}
	if _, chunks, _ := encodeChunks(snap, chunkRows); len(chunks) > chunksBound(snap, chunkRows) {
		t.Fatalf("%s at %d: chunks are %d bytes, bound says %d", label, chunkRows, len(chunks), chunksBound(snap, chunkRows))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// oracleChunkSizes are the chunk sizes every oracle comparison runs at:
// the smallest, a second multiple of 64, and the default.
var oracleChunkSizes = []int{64, 128, DefaultChunkRows}

// TestEncodeMatchesReferenceOverCorpora: over DBLP and Movie, shredded
// under hybrid inlining and under every single transformation, every
// table encodes to the reference encoder's bytes at every oracle chunk
// size.
func TestEncodeMatchesReferenceOverCorpora(t *testing.T) {
	tables := 0
	for _, c := range []struct {
		name string
		tree *schema.Tree
		doc  func(*schema.Tree) *xmlgen.Doc
	}{
		{"dblp", schema.DBLP(), func(tr *schema.Tree) *xmlgen.Doc {
			return xmlgen.GenerateDBLP(tr, xmlgen.DBLPOptions{Inproceedings: 600, Books: 80, Seed: 5})
		}},
		{"movie", schema.Movie(), func(tr *schema.Tree) *xmlgen.Doc {
			return xmlgen.GenerateMovie(tr, xmlgen.MovieOptions{Movies: 400, Seed: 6})
		}},
	} {
		doc := c.doc(c.tree)
		trees := map[string]*schema.Tree{"hybrid": c.tree}
		for _, tr := range transform.EnumerateAll(c.tree, xmlgen.CollectStats(c.tree, doc)) {
			if next, err := tr.Apply(c.tree); err == nil {
				trees[tr.Key()] = next
			}
		}
		for name, tree := range trees {
			m, err := shred.Compile(tree)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, name, err)
			}
			db, err := shred.Shred(m, doc)
			if err != nil {
				t.Fatalf("%s %s: shred: %v", c.name, name, err)
			}
			for _, tb := range db.Tables() {
				for _, cr := range oracleChunkSizes {
					sameAsRef(t, c.name+" "+name+" "+tb.Name, tb.Snapshot(), cr)
				}
				tables++
			}
		}
	}
	t.Logf("%d tables compared", tables)
}

// edgeTable builds a table of the given row count whose string column
// "s" is NULL in every row when allNull is set, and otherwise mixes
// NULLs and empty strings into a cycle of strings so that every chunk after the first meets them in an
// order unlike the global dictionary's (the global order is set by the
// first chunk; later chunks start the cycle elsewhere and skip some).
func edgeTable(rows int, allNull bool) *rel.Table {
	tb := rel.NewTable("edge", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: "s", Typ: rel.TString, Nullable: true},
		{Name: "none", Typ: rel.TString, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true},
	})
	for r := 0; r < rows; r++ {
		s := rel.NullOf(rel.TString)
		switch {
		case allNull || r%5 == 4:
		case r%11 == 3:
			s = rel.Str("")
		default:
			s = rel.Str(fmt.Sprintf("w%d", (r*7+r/64*3)%23))
		}
		f := rel.Float(float64(r) / 4)
		if r%9 == 0 {
			f = rel.NullOf(rel.TFloat)
		}
		tb.AppendRow([]rel.Value{rel.Int(int64(r)), s, rel.NullOf(rel.TString), f})
	}
	return tb
}

// TestEncodeMatchesReferenceOnEdges covers the shapes the corpora may
// miss: no rows at all, a string column NULL in every row, row counts
// of exactly k chunks and one row either side, chunk-local dictionary
// orders unlike the global one, and bitmap bits past the last row.
func TestEncodeMatchesReferenceOnEdges(t *testing.T) {
	for _, cr := range oracleChunkSizes {
		for _, rows := range []int{0, 1, 63, 64, 65, cr - 1, cr, cr + 1, 3*cr - 1, 3 * cr, 3*cr + 1} {
			for _, allNull := range []bool{false, true} {
				sameAsRef(t, fmt.Sprintf("edge rows=%d allNull=%v", rows, allNull), edgeTable(rows, allNull).Snapshot(), cr)
			}
		}
	}
	// The edge table's premise: some chunk meets its strings in an order
	// other than the global dictionary's.
	snap := edgeTable(3*64, false).Snapshot()
	part, err := refSlice(snap, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	global := snap.Columns[1].Dict
	pos := make(map[string]int, len(global))
	for i, s := range global {
		pos[s] = i
	}
	ordered := true
	for i := 1; i < len(part.Columns[1].Dict); i++ {
		ordered = ordered && pos[part.Columns[1].Dict[i-1]] < pos[part.Columns[1].Dict[i]]
	}
	if ordered {
		t.Fatal("edge table's second chunk meets its strings in global dictionary order")
	}
	for _, multi := range []int{200, 333} {
		for _, cr := range oracleChunkSizes {
			sameAsRef(t, fmt.Sprintf("multiChunkDB(%d)", multi), multiChunkDB(multi).Table("fact").Snapshot(), cr)
		}
	}
	// A snapshot made by hand may set bitmap bits past its last row; the
	// last chunk's tail word is masked as the reference encoder masks it.
	stray := edgeTable(100, false).Snapshot()
	for i := range stray.Columns {
		words := append([]uint64(nil), stray.Columns[i].NullWords...)
		words[len(words)-1] |= 1 << 63
		stray.Columns[i].NullWords = words
	}
	for _, cr := range oracleChunkSizes {
		sameAsRef(t, "bits past the last row", stray, cr)
	}
}

// fuzzTable builds a table from fuzz bytes: the first byte picks the
// chunk size, and each later byte is one row whose string, float and
// int cells it chooses (NULLs, repeats, NaN, negative zero).
func fuzzTable(data []byte) (*rel.Table, int) {
	tb := rel.NewTable("fz", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: "s", Typ: rel.TString, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true},
		{Name: "n", Typ: rel.TInt, Nullable: true},
	})
	if len(data) == 0 {
		return tb, 64
	}
	chunkRows := 64 * (1 + int(data[0]%3))
	for r, b := range data[1:] {
		row := []rel.Value{rel.Int(int64(r)), rel.Str(fmt.Sprintf("v%d", b%37)), rel.Float(float64(b) / 3), rel.Int(int64(b) - 128)}
		switch b % 7 {
		case 0:
			row[1] = rel.NullOf(rel.TString)
		case 1:
			row[2] = rel.Float(math.NaN())
		case 2:
			row[2] = rel.Float(math.Copysign(0, -1))
		case 3:
			row[2], row[3] = rel.NullOf(rel.TFloat), rel.NullOf(rel.TInt)
		case 4:
			row[1] = rel.Str("")
		}
		tb.AppendRow(row)
	}
	return tb, chunkRows
}

// fuzzEncodeSeeds are FuzzEncodeChunkedSegment's seeds, checked in
// under testdata/fuzz by TestFuzzCorpusChecked.
func fuzzEncodeSeeds() map[string][]byte {
	ramp := func(n int, step byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i) * step
		}
		return out
	}
	return map[string][]byte{
		"empty":        {},
		"no-rows":      {1},
		"one-chunk-64": append([]byte{0}, ramp(64, 5)...),
		"ramp-130-128": append([]byte{1}, ramp(130, 3)...),
		"ramp-400-192": append([]byte{2}, ramp(400, 11)...),
		"nulls-65":     append([]byte{0}, bytes.Repeat([]byte{7}, 65)...),
	}
}

// FuzzEncodeChunkedSegment: for any table fuzzTable builds, the encoder
// writes the reference encoder's bytes, and DecodeChunkedSegment gives
// the table back bit for bit.
func FuzzEncodeChunkedSegment(f *testing.F) {
	for _, seed := range fuzzEncodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, chunkRows := fuzzTable(data)
		sameAsRef(t, "fuzz table", tb.Snapshot(), chunkRows)
		enc, err := EncodeChunkedSegment(tb.Snapshot(), chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeChunkedSegment(enc)
		if err != nil {
			t.Fatalf("encoded table does not decode: %v", err)
		}
		tablesBitEqual(t, tb, got)
	})
}

// decodedChunks encodes tb at chunkRows and decodes every chunk on its
// own, through the directory, into a whole table.
func decodedChunks(t *testing.T, tb *rel.Table, chunkRows int) []*rel.Table {
	t.Helper()
	enc, err := EncodeChunkedSegment(tb.Snapshot(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc)
	if err != nil {
		t.Fatal(err)
	}
	var out []*rel.Table
	for k, ref := range d.Chunks {
		frag, err := d.decodeChunk(k, enc[ref.Off:ref.Off+ref.Size], d.all, nil)
		if err != nil {
			t.Fatalf("chunk %d: %v", k, err)
		}
		chunk, err := rel.TableFromSnapshot(frag.Snapshot())
		if err != nil {
			t.Fatalf("chunk %d is not a valid table: %v", k, err)
		}
		out = append(out, chunk)
	}
	return out
}

// TestEncodedChunksSelfContained: every chunk the encoder writes is a
// valid table in its own right, bit-identical to its rows of the
// source, at every chunk size (the last chunk short).
func TestEncodedChunksSelfContained(t *testing.T) {
	tb := multiChunkDB(300).Table("fact")
	for _, cr := range []int{64, 128, 192} {
		lo := 0
		for k, chunk := range decodedChunks(t, tb, cr) {
			if want := min(cr, tb.RowCount()-lo); chunk.RowCount() != want {
				t.Fatalf("chunk %d at %d rows/chunk holds %d rows, want %d", k, cr, chunk.RowCount(), want)
			}
			for r := 0; r < chunk.RowCount(); r++ {
				for c := range tb.Columns {
					if !tb.ValueAt(lo+r, c).BitEqual(chunk.ValueAt(r, c)) {
						t.Fatalf("chunk %d at %d rows/chunk drifted at (%d,%d)", k, cr, r, c)
					}
				}
			}
			lo += chunk.RowCount()
		}
		if lo != tb.RowCount() {
			t.Fatalf("chunks at %d rows/chunk hold %d rows, table %d", cr, lo, tb.RowCount())
		}
	}
}

// TestEncodedChunkBytesMatchRowBytes holds the byte accounting of each
// decoded chunk — TableFromSnapshot's, column by column — to the sum of
// its rows' RowBytes: NULLs, empty strings, and a string column that
// never interns anything, in chunks whose last one is short.
func TestEncodedChunkBytesMatchRowBytes(t *testing.T) {
	for seed := 1; seed <= 4; seed++ {
		tb := edgeTable(130+37*seed, seed%2 == 0)
		var rowBytes []int64
		for r := 0; r < tb.RowCount(); r++ {
			row := make([]rel.Value, len(tb.Columns))
			for c := range row {
				row[c] = tb.ValueAt(r, c)
			}
			rowBytes = append(rowBytes, rel.RowBytes(row))
		}
		lo := 0
		for k, chunk := range decodedChunks(t, tb, 64) {
			var want int64
			for _, b := range rowBytes[lo : lo+chunk.RowCount()] {
				want += b
			}
			if chunk.Bytes() != want {
				t.Fatalf("seed %d chunk %d: accounts %d bytes, its rows' RowBytes sum to %d", seed, k, chunk.Bytes(), want)
			}
			lo += chunk.RowCount()
		}
	}
}
