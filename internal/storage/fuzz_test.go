package storage

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/rel"
)

// FuzzSegmentDecode hammers the read-only whole-table segment decoder
// with arbitrary bytes. The properties:
//
//  1. DecodeSegment never panics and never allocates proportionally to
//     claimed (rather than actual) sizes.
//  2. Anything that decodes AND validates through rel.TableFromSnapshot
//     survives what Open's conversion does to it: encoded as a chunked
//     segment it decodes back to a bit-identical table, and that
//     table's snapshot re-encodes to the same bytes.
func FuzzSegmentDecode(f *testing.F) {
	for _, tb := range fixtureDB().Tables() {
		f.Add(encodeLegacySegment(tb.Snapshot()))
	}
	// Minimal valid segment: empty single-column table.
	empty := rel.NewTable("e", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}})
	f.Add(encodeLegacySegment(empty.Snapshot()))
	// Seeds aimed at the interesting branches: bad magic, future
	// version, truncations, and a CRC-valid envelope over garbage.
	seed := encodeLegacySegment(empty.Snapshot())
	bad := append([]byte(nil), seed...)
	bad[0] ^= 0xff
	f.Add(bad)
	future := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(future[4:8], SegmentVersion+1)
	f.Add(future)
	f.Add(seed[:len(seed)-3])
	f.Add(wrapEnvelope(segMagic, SegmentVersion, []byte{0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSegment(data)
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

// FuzzRedoDecode gives the redo log reader the same treatment: no
// panics, and the rows of an accepted log — in either framing — re-encode
// faithfully as batched (version 2) records, the only framing written.
func FuzzRedoDecode(f *testing.F) {
	f.Add(emptyLegacyRedoLog())
	f.Add(emptyRedoLog())
	log := emptyLegacyRedoLog()
	rec := encodeLegacyRedoRecord("book", []rel.Value{rel.Int(1), rel.Str("x")})
	withRec := append(append(log[:redoHeaderSize:redoHeaderSize], rec...), encodeRedoFooter(1)...)
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
		recs, version, err := readRedo(data)
		if err != nil {
			return
		}
		if version != RedoVersion && version != RedoBatchVersion {
			t.Fatalf("accepted redo log reports version %d", version)
		}
		out := emptyRedoLog()[:redoHeaderSize]
		for _, r := range recs {
			out = append(out, encodeRedoBatchRecord(r.Table, [][]rel.Value{r.Row})...)
		}
		out = append(out, encodeRedoFooter(uint32(len(recs)))...)
		recs2, version2, err := readRedo(out)
		if err != nil {
			t.Fatalf("re-encoding of accepted redo log rejected: %v", err)
		}
		if version2 != RedoBatchVersion {
			t.Fatalf("re-encoded log reports version %d, want %d", version2, RedoBatchVersion)
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
