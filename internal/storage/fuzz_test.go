package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
	if version >= RedoBatchVersion {
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

// legacyRedoLog builds a version-1 redo log, the one-row-per-record
// framing: a record body is a table name and one row's values.
func legacyRedoLog(table string, rows ...[]rel.Value) []byte {
	var records [][]byte
	for _, row := range rows {
		body := appendString(nil, table)
		body = binary.AppendUvarint(body, uint64(len(row)))
		for _, v := range row {
			body = appendValue(body, v)
		}
		records = append(records, legacyFrame(body))
	}
	return redoLog(1, len(rows), records...)
}

// batchedRecord is a batched record of three rows to one table, the
// shape the fuzz seeds and the checked-in corpus share.
func batchedRecord() []byte {
	return appendRedoBatchRecord(nil, []redoRecord{
		{Table: "book", Row: []rel.Value{rel.Int(1), rel.Str("x")}},
		{Table: "book", Row: []rel.Value{rel.Int(2), rel.Str("y")}},
		{Table: "book", Row: []rel.Value{rel.NullOf(rel.TInt), rel.Str("z")}},
	})
}

// redoRowsEqual reports whether two decoded redo logs hold the same
// rows, value for value under BitEqual.
func redoRowsEqual(a, b []redoRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || len(a[i].Row) != len(b[i].Row) {
			return false
		}
		for j := range a[i].Row {
			if !a[i].Row[j].BitEqual(b[i].Row[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzRedoDecode gives the redo log reader the same treatment: no
// panics, and every accepted log is of the current version (a version-1
// or version-2 log is refused, however well formed). Its committed
// prefix reads back alone to the same rows with no torn tail, and its
// rows re-encode faithfully.
func FuzzRedoDecode(f *testing.F) {
	f.Add(legacyRedoLog("book"))
	withRec := legacyRedoLog("book", []rel.Value{rel.Int(1), rel.Str("x")})
	f.Add(withRec)
	f.Add(redoLog(2, 3, legacyFrame(batchedRecord()[recordHeaderSize:])))
	f.Add(emptyRedoLog())
	batched := redoLog(RedoBatchVersion, 0, batchedRecord(), batchedRecord())
	f.Add(batched)
	f.Add(batched[:len(batched)-5])                                                           // torn tail
	f.Add(append(batched[:len(batched):len(batched)], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // zero-filled tail
	f.Add([]byte("XRDO"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end, err := readRedo(data)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
			t.Fatalf("accepted a redo log of version %d", v)
		}
		if end > len(data) {
			t.Fatalf("committed length %d exceeds the log's %d bytes", end, len(data))
		}
		recs2, end2, err := readRedo(data[:end])
		if err != nil || end2 != end || !redoRowsEqual(recs, recs2) {
			t.Fatalf("committed prefix of %d bytes does not read back alone: end %d, %v", end, end2, err)
		}
		out := emptyRedoLog()
		for _, r := range recs {
			out = appendRedoBatchRecord(out, []redoRecord{r})
		}
		recs3, end3, err := readRedo(out)
		if err != nil || end3 != len(out) {
			t.Fatalf("re-encoding of accepted redo log rejected: end %d of %d, %v", end3, len(out), err)
		}
		if !redoRowsEqual(recs, recs3) {
			t.Fatalf("round trip drifted: %d records vs %d", len(recs3), len(recs))
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
	book, err := EncodeChunkedSegment(fixtureDB().Table("book").Snapshot(), 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(driftedGeneration(f, book))

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
