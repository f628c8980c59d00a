package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rel"
)

// multiChunkDB builds a database whose tables span several chunks at
// 64 rows/chunk, with every storage shape crossing chunk boundaries:
// NULLs, duplicate strings (some repeating across chunks, some local),
// strings that read as numbers, and non-finite and negative-zero floats,
// placed on both sides of boundary rows.
func multiChunkDB(rows int) *rel.Database {
	t := rel.NewTable("fact", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true, LeafID: 3},
		{Name: "val", Typ: rel.TFloat, Nullable: true, LeafID: 4},
	})
	for i := 0; i < rows; i++ {
		row := []rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), {}, {}}
		switch i % 11 {
		case 0:
			row[2] = rel.Str("common") // repeats in every chunk
		case 1:
			row[2] = rel.NullOf(rel.TString)
		case 2:
			row[2] = rel.Str(fmt.Sprint(1900 + i))
		default:
			row[2] = rel.Str(fmt.Sprintf("tag-%d", i/7)) // spans boundaries
		}
		switch i % 13 {
		case 0:
			row[3] = rel.Float(math.NaN())
		case 1:
			row[3] = rel.Float(math.Copysign(0, -1))
		case 2:
			row[3] = rel.NullOf(rel.TFloat)
		case 3:
			row[3] = rel.Float(float64(i) + 0.5)
		default:
			row[3] = rel.Float(float64(i) / 3)
		}
		t.AppendRow(row)
	}
	db := rel.NewDatabase()
	db.Add(t)
	return db
}

func TestChunkedEncodeDeterministic(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		a, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("table %q: two chunked encodings of the same table differ", tb.Name)
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	dbs := []*rel.Database{fixtureDB(), multiChunkDB(333)}
	for _, db := range dbs {
		for _, tb := range db.Tables() {
			for _, chunkRows := range []int{64, 128, DefaultChunkRows} {
				enc, err := EncodeChunkedSegment(tb.Snapshot(), chunkRows)
				if err != nil {
					t.Fatalf("table %q chunk %d: %v", tb.Name, chunkRows, err)
				}
				got, err := DecodeChunkedSegment(enc)
				if err != nil {
					t.Fatalf("table %q chunk %d: %v", tb.Name, chunkRows, err)
				}
				tablesBitEqual(t, tb, got)
			}
		}
	}
}

// TestChunkedRejectsBadChunkSize pins the chunkRows contract: only
// positive multiples of 64 encode (bitmap words must slice cleanly).
func TestChunkedRejectsBadChunkSize(t *testing.T) {
	snap := fixtureDB().Tables()[0].Snapshot()
	for _, bad := range []int{-64, 0, 1, 63, 65, 100} {
		if _, err := EncodeChunkedSegment(snap, bad); err == nil {
			t.Fatalf("chunk size %d accepted", bad)
		}
	}
}

// TestChunkedGolden pins the chunked wire format byte for byte: any
// change must come with a version bump and regenerated goldens
// (go test ./internal/storage -run ChunkedGolden -update).
func TestChunkedGolden(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", tb.Name+".cseg")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (regenerate with -update): %v", err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("table %q: chunked encoding differs from golden file %s (%d vs %d bytes) — format drifted without a version bump",
				tb.Name, path, len(enc), len(want))
		}
		got, err := DecodeChunkedSegment(want)
		if err != nil {
			t.Fatal(err)
		}
		tablesBitEqual(t, tb, got)
	}
}

// TestChunkedFlipsNeverLie flips sampled bits across a multi-chunk
// encoding: every flip must either fail decode or (never observed for
// a checksummed format) still produce bit-identical data.
func TestChunkedFlipsNeverLie(t *testing.T) {
	tb := multiChunkDB(200).Table("fact")
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(enc); off += 17 {
		d := append([]byte(nil), enc...)
		d[off] ^= 0x10
		got, err := DecodeChunkedSegment(d)
		if err != nil {
			continue
		}
		tablesBitEqual(t, tb, got)
	}
}

// TestChunkVerificationChainByRegion corrupts one encoded chunk region
// by region and holds every link of the verification chain to its job.
// Each corruption must be refused against the directory entry as
// written (the directory's CRC32-C covers the whole frame). Then the
// directory entry is re-hashed over the corrupted frame — corruption
// the checksum does not see — and the links behind it must still refuse
// everything that is not a well-formed chunk: the envelope's magic,
// version and length, the bounds-checked decode, and structural
// validation. Two regions have
// nothing behind the checksum, and the test says so: a live numeric value (any 64 bits are a value) and the
// envelope's own CRC field, which the decoder no longer hashes against
// because the directory CRC already covers it.
func TestChunkVerificationChainByRegion(t *testing.T) {
	const rows = 70 // two bitmap words, the second partly used
	tb := rel.NewTable("t", []rel.Column{
		{Name: "n", Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true},
	})
	for r := 0; r < rows; r++ {
		n, tag := rel.Int(int64(r+7)), rel.Str(fmt.Sprintf("a%d", r%2))
		switch r {
		case 1:
			n = rel.NullOf(rel.TInt)
		case 2:
			tag = rel.NullOf(rel.TString)
		}
		tb.AppendRow([]rel.Value{n, tag})
	}
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 128)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chunks) != 1 {
		t.Fatalf("fixture has %d chunks, want 1", len(d.Chunks))
	}
	ref := d.Chunks[0]
	blob := enc[ref.Off : ref.Off+ref.Size]
	if _, err := d.decodeChunk(0, blob, d.all, nil); err != nil {
		t.Fatalf("intact chunk: %v", err)
	}

	// Walk the payload the way the format lays it out to find each
	// region's offset inside the frame.
	r := &reader{buf: blob[envelopeSize:], kind: "chunk"}
	at := func() int { return envelopeSize + r.off }
	r.take(8*r.uvarint("words"), "bitmap")
	bitmap := at() - 16 // first word of column n's bitmap
	ints := at()
	r.take(8*rows, "ints")
	r.take(8*r.uvarint("words"), "bitmap")
	dictLen := at()
	dn := r.uvarint("dict size")
	dictBytes := at() + 2 // second byte of the first entry, "a0"
	for i := uint64(0); i < dn; i++ {
		r.take(r.uvarint("len"), "entry")
	}
	codes := at()
	r.take(rows, "codes")
	if r.err != nil || dn != 2 || at() != len(blob) || blob[dictBytes] != '0' {
		t.Fatalf("fixture layout drifted: err %v, dict %d, end %d of %d, dict byte %q",
			r.err, dn, at(), len(blob), blob[dictBytes])
	}

	flip := func(off int, mask byte) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= mask; return b }
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		// behindCRC: refused even when the directory CRC matches the
		// corrupted frame.
		behindCRC bool
	}{
		{"envelope magic", flip(0, 0x01), true},
		{"envelope version", flip(4, 0x01), true},
		{"envelope length", flip(8, 0x01), true},
		{"envelope CRC field", flip(16, 0x01), false},
		{"bitmap word: NULL bit over a live value", flip(bitmap, 0x01), true},
		{"int vector: a NULL row's slot", flip(ints+8*1, 0x01), true},
		{"int vector: a live value", flip(ints+8*3, 0x01), false},
		{"dictionary length", flip(dictLen, 0x01), true},
		{"dictionary bytes: entry becomes a duplicate", flip(dictBytes, 0x01), true},
		{"code varint", flip(codes, 0x01), true},
		{"trailing byte", func(b []byte) []byte {
			b = append(b, 0)
			b[8]++ // the envelope admits to the extra byte
			return b
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.corrupt(append([]byte(nil), blob...))
			if _, err := d.decodeChunk(0, bad, d.all, nil); err == nil {
				t.Fatal("corrupted chunk accepted against the directory entry as written")
			}
			fooled := *d
			fooled.Chunks = []chunkRef{{Rows: ref.Rows, Off: ref.Off, Size: int64(len(bad)), CRC: crc32.Checksum(bad, crcTable)}}
			_, err := fooled.decodeChunk(0, bad, d.all, nil)
			if tc.behindCRC && err == nil {
				t.Fatal("with the directory CRC fooled, nothing behind it refused the chunk")
			}
			if !tc.behindCRC && err != nil {
				t.Fatalf("expected only the directory CRC to guard this region, but a later link refused it: %v", err)
			}
		})
	}
}

// nullInNotNullSegment is a chunked segment of two chunks whose second
// holds a NULL in the NOT NULL ID column: the declaration says one thing
// and the bitmap another. The encoder does not validate, so it writes
// what a foreign or damaged writer could.
func nullInNotNullSegment(t testing.TB) []byte {
	t.Helper()
	tb := rel.NewTable("t", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true},
	})
	for r := 0; r < 70; r++ {
		id := rel.Int(int64(r + 1))
		if r == 66 {
			id = rel.NullOf(rel.TInt)
		}
		tb.AppendRow([]rel.Value{id, rel.Str(fmt.Sprintf("a%d", r%3))})
	}
	s := tb.Snapshot()
	s.Columns[0].Col.Nullable = false
	enc, err := EncodeChunkedSegment(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestChunkRefusesNullInNotNullColumn: a chunk whose null bitmap sets a
// bit in a column declared NOT NULL is refused by the chunk's own
// verification chain (rel's AdoptColumn), so a store on disk cannot hand
// the engine a NULL where its ORDER BY or join key is declared NOT NULL.
func TestChunkRefusesNullInNotNullColumn(t *testing.T) {
	enc := nullInNotNullSegment(t)
	if _, err := DecodeChunkedSegment(enc); err == nil || !strings.Contains(err.Error(), "chunk 1 of t") || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("DecodeChunkedSegment: %v, want chunk 1's NOT NULL column refused", err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Chunks[0]
	if _, err := d.decodeChunk(0, enc[ref.Off:ref.Off+ref.Size], d.all, nil); err != nil {
		t.Fatalf("chunk 0, which holds no NULL: %v", err)
	}
}
