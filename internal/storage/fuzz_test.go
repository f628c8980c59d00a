package storage

import (
	"bytes"
	"encoding/binary"
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
	snap2, err := DecodeChunkedSegment(enc)
	if err != nil {
		t.Fatalf("re-encoding of accepted segment does not decode: %v", err)
	}
	tb2, err := rel.TableFromSnapshot(snap2)
	if err != nil {
		t.Fatalf("re-encoding of accepted segment does not validate: %v", err)
	}
	if tb.Name != tb2.Name || tb.RowCount() != tb2.RowCount() ||
		tb.Generation() != tb2.Generation() || tb.Bytes() != tb2.Bytes() {
		t.Fatalf("round trip drifted: %s/%d/%d/%d vs %s/%d/%d/%d",
			tb.Name, tb.RowCount(), tb.Generation(), tb.Bytes(),
			tb2.Name, tb2.RowCount(), tb2.Generation(), tb2.Bytes())
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

// legacyRedoLog builds a version-1 redo log, the one-row-per-record
// framing (a record body is a table name and one row's values) this
// package no longer reads. It exists so the fuzz seeds and the checked-in
// corpus keep inputs readRedo must refuse.
func legacyRedoLog(table string, rows ...[]rel.Value) []byte {
	log := emptyRedoLog()[:redoHeaderSize]
	binary.LittleEndian.PutUint32(log[4:8], 1)
	for _, row := range rows {
		body := appendString(nil, table)
		body = binary.AppendUvarint(body, uint64(len(row)))
		for _, v := range row {
			body = appendValue(body, v)
		}
		log = append(log, frameRedoBody(body)...)
	}
	return append(log, encodeRedoFooter(uint32(len(rows)))...)
}

// FuzzRedoDecode gives the redo log reader the same treatment: no
// panics, every accepted log is batch-framed (a version-1 log is
// refused, however well formed), and its rows re-encode faithfully.
func FuzzRedoDecode(f *testing.F) {
	f.Add(legacyRedoLog("book"))
	f.Add(emptyRedoLog())
	withRec := legacyRedoLog("book", []rel.Value{rel.Int(1), rel.Str("x")})
	f.Add(withRec)
	f.Add(withRec[:len(withRec)-redoFooterSize]) // committed record, missing footer
	// A batched record: three rows to one table under one frame.
	batched := emptyRedoLog()[:redoHeaderSize]
	batched = append(batched, encodeRedoBatchRecord("book", [][]rel.Value{
		{rel.Int(1), rel.Str("x")},
		{rel.Int(2), rel.Str("y")},
		{rel.NullOf(rel.TInt), rel.Str("z")},
	})...)
	batched = append(batched, encodeRedoFooter(3)...)
	f.Add(batched)
	f.Add([]byte("XRDO"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readRedo(data)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
			t.Fatalf("accepted a redo log of version %d", v)
		}
		out := emptyRedoLog()[:redoHeaderSize]
		for _, r := range recs {
			out = append(out, encodeRedoBatchRecord(r.Table, [][]rel.Value{r.Row})...)
		}
		out = append(out, encodeRedoFooter(uint32(len(recs)))...)
		recs2, err := readRedo(out)
		if err != nil {
			t.Fatalf("re-encoding of accepted redo log rejected: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip drifted: %d records vs %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs[i].Table != recs2[i].Table || len(recs[i].Row) != len(recs2[i].Row) {
				t.Fatalf("record %d drifted", i)
			}
			for j := range recs[i].Row {
				if !recs[i].Row[j].BitEqual(recs2[i].Row[j]) {
					t.Fatalf("record %d value %d drifted", i, j)
				}
			}
		}
	})
}

// FuzzChunkDecode hammers the chunked-segment decoder: arbitrary bytes
// never panic, and anything that decodes AND validates re-encodes to a
// chunked segment that decodes back bit-identically.
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
	f.Add(nullInNotNullSegment(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeChunkedSegment(data)
		if err != nil {
			return
		}
		tb, err := rel.TableFromSnapshot(snap)
		if err != nil {
			return
		}
		chunkedRoundTrip(t, tb)
	})
}
