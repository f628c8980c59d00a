package storage

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden segment files")

func TestSegmentEncodeDeterministic(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		a := encodeLegacySegment(tb.Snapshot())
		b := encodeLegacySegment(tb.Snapshot())
		if !bytes.Equal(a, b) {
			t.Fatalf("table %q: two encodings of the same table differ", tb.Name)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		snap, err := DecodeSegment(encodeLegacySegment(tb.Snapshot()))
		if err != nil {
			t.Fatalf("table %q: %v", tb.Name, err)
		}
		got, err := rel.TableFromSnapshot(snap)
		if err != nil {
			t.Fatalf("table %q: %v", tb.Name, err)
		}
		tablesBitEqual(t, tb, got)
	}
}

// TestSegmentGolden pins the read-only whole-table wire format byte for
// byte. The golden files are frozen (-update does not rewrite them): the
// product no longer encodes this format, and the test-side encoder must
// keep producing exactly the bytes DecodeSegment has always read.
func TestSegmentGolden(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		enc := encodeLegacySegment(tb.Snapshot())
		path := filepath.Join("testdata", "golden", tb.Name+".seg")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("table %q: encoding differs from golden file %s (%d vs %d bytes) — format drifted without a version bump",
				tb.Name, path, len(enc), len(want))
		}
		// The golden bytes must also still decode to the fixture.
		snap, err := DecodeSegment(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rel.TableFromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		tablesBitEqual(t, tb, got)
	}
}

// TestSegmentVersionBump exercises the forward-compatibility path: a
// segment from a future format version must be rejected with a
// descriptive error, not misparsed.
func TestSegmentVersionBump(t *testing.T) {
	enc := encodeLegacySegment(fixtureDB().Tables()[0].Snapshot())
	future := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(future[4:8], SegmentVersion+1)
	_, err := DecodeSegment(future)
	if err == nil || !strings.Contains(err.Error(), "unsupported segment format version") {
		t.Fatalf("future-version segment: %v", err)
	}
	// Same gate on the other file kinds.
	man := &Manifest{FormatVersion: SegmentVersion, RedoFile: RedoName}
	mb, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(mb[4:8], ManifestVersion+1)
	// Re-wrapping is not needed: version is outside the checksummed
	// payload, so only the version check can fire.
	if _, err := decodeManifest(mb); err == nil || !strings.Contains(err.Error(), "unsupported manifest format version") {
		t.Fatalf("future-version manifest: %v", err)
	}
	log := emptyRedoLog()
	binary.LittleEndian.PutUint32(log[4:8], RedoBatchVersion+1)
	if _, _, err := readRedo(log); err == nil || !strings.Contains(err.Error(), "unsupported redo log format version") {
		t.Fatalf("future-version redo log: %v", err)
	}
	chunked, err := EncodeChunkedSegment(fixtureDB().Tables()[0].Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(chunked[4:8], ChunkSegmentVersion+1)
	if _, err := DecodeChunkedSegment(chunked); err == nil || !strings.Contains(err.Error(), "unsupported chunked segment directory format version") {
		t.Fatalf("future-version chunked segment: %v", err)
	}
}

// TestSegmentAccounting ties the in-memory byte/page accounting to the
// serialized representation: the decoded table must account exactly
// like the original, and the segment file must stay within a linear
// envelope of the accounted size (no hidden blow-up, no hidden
// compression the accounting misses).
func TestSegmentAccounting(t *testing.T) {
	for _, tb := range fixtureDB().Tables() {
		snap := tb.Snapshot()
		enc := encodeLegacySegment(snap)
		decSnap, err := DecodeSegment(enc)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := rel.TableFromSnapshot(decSnap)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Bytes() != tb.Bytes() || dec.Pages() != tb.Pages() {
			t.Fatalf("table %q: decoded accounting %d bytes/%d pages, original %d/%d",
				tb.Name, dec.Bytes(), dec.Pages(), tb.Bytes(), tb.Pages())
		}
		// Structural upper bound on the wire size, computed from the
		// snapshot shape: envelope + table header + per-column header,
		// bitmap words, vectors (8 bytes per numeric row, <=5 bytes per
		// string code), dictionary, and exceptions.
		bound := envelopeSize + 64 + len(snap.Name) + len(snap.Parent)
		for i := range snap.Columns {
			cs := &snap.Columns[i]
			bound += 64 + len(cs.Col.Name) + 8*len(cs.NullWords)
			switch cs.Col.Typ {
			case rel.TInt, rel.TFloat:
				bound += 8 * snap.RowCount
			case rel.TString:
				bound += 5 * snap.RowCount
				for _, d := range cs.Dict {
					bound += 10 + len(d)
				}
			}
			for _, e := range cs.Exc {
				bound += 40 + len(e.Val.S)
			}
		}
		if len(enc) > bound {
			t.Fatalf("table %q: segment is %d bytes, structural bound is %d", tb.Name, len(enc), bound)
		}
		if int64(len(enc)) > 2*tb.Bytes()+4096 {
			t.Fatalf("table %q: segment %d bytes vs accounted %d — serialization overhead out of envelope",
				tb.Name, len(enc), tb.Bytes())
		}
	}
}

// TestEnvelopeRejects drives the shared file envelope through its
// failure modes directly.
func TestEnvelopeRejects(t *testing.T) {
	payload := []byte("hello payload")
	good := wrapEnvelope(segMagic, SegmentVersion, payload)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"too short", func(d []byte) []byte { return d[:envelopeSize-1] }, "truncated"},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "not a segment file"},
		{"bad length", func(d []byte) []byte { d[8]++; return d }, "disagrees with file size"},
		{"flipped payload", func(d []byte) []byte { d[envelopeSize] ^= 1; return d }, "checksum mismatch"},
		{"flipped crc", func(d []byte) []byte { d[16] ^= 1; return d }, "checksum mismatch"},
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-1] }, "disagrees with file size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mutate(append([]byte(nil), good...))
			_, err := openEnvelope("segment", segMagic, SegmentVersion, d)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
	got, err := openEnvelope("segment", segMagic, SegmentVersion, good)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact envelope rejected: %v", err)
	}
	if crc32.Checksum(payload, crcTable) == 0 {
		t.Fatal("degenerate checksum table")
	}
}
