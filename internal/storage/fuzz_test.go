package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rel"
)

// chunkedRoundTrip requires an accepted table to re-encode through the
// current encoder to a chunked segment that decodes back bit-identically
// and byte-stably.
func chunkedRoundTrip(t *testing.T, tb *rel.Table) {
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
	if err != nil {
		t.Fatalf("re-encoding of accepted segment failed: %v", err)
	}
	tb2, err := DecodeChunkedSegment(enc)
	if err != nil {
		t.Fatalf("re-encoding of accepted segment does not decode: %v", err)
	}
	if tb.Name != tb2.Name || tb.RowCount() != tb2.RowCount() || tb.Bytes() != tb2.Bytes() {
		t.Fatalf("round trip drifted: %s/%d/%d vs %s/%d/%d",
			tb.Name, tb.RowCount(), tb.Bytes(), tb2.Name, tb2.RowCount(), tb2.Bytes())
	}
	for r := 0; r < tb.RowCount(); r++ {
		for c := range tb.Columns {
			if !tb.ValueAt(r, c).BitEqual(tb2.ValueAt(r, c)) {
				t.Fatalf("round trip drifted at (%d,%d)", r, c)
			}
		}
	}
	// A second encoding must be byte-stable.
	enc2, err := EncodeChunkedSegment(tb2.Snapshot(), 64)
	if err != nil || !bytes.Equal(enc, enc2) {
		t.Fatal("encoding of accepted segment is not deterministic")
	}
}

// redoLog assembles a redo log of the given version from framed
// records. Versions 1 and 2, which this package no longer reads, end in
// the commit footer they carried: "XEND" | u32 row count | u32 CRC32-C
// of those eight bytes; their records are framed by legacyFrame. They
// exist so the fuzz seeds and the checked-in corpus keep inputs readRedo
// must refuse.
func redoLog(version uint32, rows int, records ...[]byte) []byte {
	log := binary.LittleEndian.AppendUint32(append([]byte(nil), redoMagic[:]...), version)
	for _, r := range records {
		log = append(log, r...)
	}
	if version > 2 {
		return log
	}
	foot := binary.LittleEndian.AppendUint32([]byte("XEND"), uint32(rows))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(foot, crcTable))
	return append(log, foot...)
}

// legacyFrame wraps a record body the way versions 1 and 2 did: u32
// body length | u32 CRC32-C of body | body.
func legacyFrame(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	return append(out, body...)
}

// appendTaggedValue writes a value the way redo versions 1 to 3 did:
// null flag, type, and all three payload fields.
func appendTaggedValue(p []byte, v rel.Value) []byte {
	p = append(p, boolByte(v.Null), byte(v.Typ))
	p = binary.AppendVarint(p, v.I)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.F))
	return appendString(p, v.S)
}

// taggedBody is a record body of versions 2 and 3: the table name, the
// row count, and per row its value count and tagged values.
func taggedBody(table string, rows ...[]rel.Value) []byte {
	body := appendString(nil, table)
	body = binary.AppendUvarint(body, uint64(len(rows)))
	for _, row := range rows {
		body = binary.AppendUvarint(body, uint64(len(row)))
		for _, v := range row {
			body = appendTaggedValue(body, v)
		}
	}
	return body
}

// frameRecord frames a record body with the header of versions 3 and
// 4: length | CRC of length | CRC of body | body.
func frameRecord(body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, crcTable))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, crcTable))
	return append(rec, body...)
}

// legacyRedoLog builds a version-1 redo log, the one-row-per-record
// framing: a record body is a table name and one row's values.
func legacyRedoLog(table string, rows ...[]rel.Value) []byte {
	var records [][]byte
	for _, row := range rows {
		body := appendString(nil, table)
		body = binary.AppendUvarint(body, uint64(len(row)))
		for _, v := range row {
			body = appendTaggedValue(body, v)
		}
		records = append(records, legacyFrame(body))
	}
	return redoLog(1, len(rows), records...)
}

// legacyRows are the rows of the version-2 and version-3 seeds.
var legacyRows = [][]rel.Value{
	{rel.Int(1), rel.Str("x")},
	{rel.Int(2), rel.Str("y")},
	{rel.NullOf(rel.TInt), rel.Str("z")},
}

// batchedRecord is a batched record of three rows to the fixture's
// book table, the shape the fuzz seeds and the checked-in corpus share:
// a NULL and a non-NULL in every nullable column.
func batchedRecord() []byte {
	return appendRedoRecord(nil, []redoRun{{table: "book", cols: fixtureDB().Table("book").Columns, rows: [][]rel.Value{
		bookRow(6),
		{rel.Int(7), rel.Int(1), rel.NullOf(rel.TString), rel.NullOf(rel.TFloat)},
		bookRow(8),
	}}})
}

// fixtureTails decodes a redo log as Open does, into fresh tail tables
// over the columns of the fixture's tables, and returns the tails that
// received a record with the committed length.
func fixtureTails(data []byte) (map[string]*rel.Table, int, error) {
	db := fixtureDB()
	tails := make(map[string]*rel.Table)
	end, err := readRedo(data, func(body []byte) error {
		return decodeRedoRecord(body, func(name string) (*rel.Table, error) {
			if t := tails[name]; t != nil {
				return t, nil
			}
			tb := db.Table(name)
			if tb == nil {
				return nil, fmt.Errorf("unknown table %q", name)
			}
			tails[name] = rel.NewTable(name, tb.Columns)
			return tails[name], nil
		})
	})
	return tails, end, err
}

// tailsEqual reports whether two sets of decoded tails hold the same
// rows, value for value under BitEqual.
func tailsEqual(a, b map[string]*rel.Table) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb := b[name]
		if tb == nil || ta.RowCount() != tb.RowCount() {
			return false
		}
		for r := 0; r < ta.RowCount(); r++ {
			for c := range ta.Columns {
				if !ta.ValueAt(r, c).BitEqual(tb.ValueAt(r, c)) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzRedoDecode gives the redo log reader the same treatment, decoding
// into the fixture's tables: no panics, and every accepted log is of the
// current version (a log of an earlier version is refused, however well
// formed). Its committed prefix reads back alone to the same rows with
// no torn tail, and its rows re-encode faithfully.
func FuzzRedoDecode(f *testing.F) {
	f.Add(legacyRedoLog("book"))
	f.Add(legacyRedoLog("book", legacyRows[0]))
	f.Add(redoLog(2, 3, legacyFrame(taggedBody("book", legacyRows...))))
	f.Add(redoLog(3, 0, frameRecord(taggedBody("book", legacyRows...))))
	f.Add(emptyRedoLog())
	batched := redoLog(RedoBatchVersion, 0, batchedRecord(), batchedRecord())
	f.Add(batched)
	f.Add(batched[:len(batched)-5])                                                           // torn tail
	f.Add(append(batched[:len(batched):len(batched)], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // zero-filled tail
	f.Add([]byte("XRDO"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tails, end, err := fixtureTails(data)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
			t.Fatalf("accepted a redo log of version %d", v)
		}
		if end > len(data) {
			t.Fatalf("committed length %d exceeds the log's %d bytes", end, len(data))
		}
		tails2, end2, err := fixtureTails(data[:end])
		if err != nil || end2 != end || !tailsEqual(tails, tails2) {
			t.Fatalf("committed prefix of %d bytes does not read back alone: end %d, %v", end, end2, err)
		}
		out := emptyRedoLog()
		for name, tb := range tails {
			out = appendRedoRecord(out, []redoRun{{table: name, cols: tb.Columns, rows: tb.Rows()}})
		}
		tails3, end3, err := fixtureTails(out)
		if err != nil || end3 != len(out) {
			t.Fatalf("re-encoding of accepted redo log rejected: end %d of %d, %v", end3, len(out), err)
		}
		if !tailsEqual(tails, tails3) {
			t.Fatal("round trip drifted")
		}
	})
}

// FuzzChunkDecode hammers the chunked-segment decoder: arbitrary bytes
// never panic, and anything that decodes is a table TableFromSnapshot
// accepts and re-encodes to a chunked segment that decodes back
// bit-identically.
func FuzzChunkDecode(f *testing.F) {
	for _, tb := range fixtureDB().Tables() {
		enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	empty := rel.NewTable("e", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}})
	seed, err := EncodeChunkedSegment(empty.Snapshot(), DefaultChunkRows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	bad := append([]byte(nil), seed...)
	bad[0] ^= 0xff
	f.Add(bad)
	future := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(future[4:8], ChunkSegmentVersion+1)
	f.Add(future)
	f.Add(seed[:len(seed)-3])
	f.Add(wrapEnvelope(chunkDirMagic, ChunkSegmentVersion, []byte{0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})
	// A well-framed segment whose directory names two columns alike: the
	// directory, not a later link, must refuse it.
	dup := fixtureDB().Table("book").Snapshot()
	dup.Columns[2].Col.Name = dup.Columns[0].Col.Name
	dupEnc, err := EncodeChunkedSegment(dup, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dupEnc)
	// Likewise a segment of a table with no name.
	anon := fixtureDB().Table("book").Snapshot()
	anon.Name = ""
	anonEnc, err := EncodeChunkedSegment(anon, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(anonEnc)
	f.Add(nullInNotNullSegment(f))
	v2, err := os.ReadFile(filepath.Join("testdata", "golden", "v2", "t0000.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2) // a segment of format 2, which must be refused

	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := DecodeChunkedSegment(data)
		if err != nil {
			return
		}
		// Assembly runs no whole-table validation: what the chunk checks
		// accept must already be a table TableFromSnapshot accepts.
		if _, err := rel.TableFromSnapshot(tb.Snapshot()); err != nil {
			t.Fatalf("decoded table does not validate: %v", err)
		}
		chunkedRoundTrip(t, tb)
	})
}
