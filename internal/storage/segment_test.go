package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden segment files")

// requireUnsupported asserts err refuses a format version: it wraps
// ErrUnsupportedFormat and names what was found.
func requireUnsupported(t *testing.T, what string, err error, wantSub string) {
	t.Helper()
	if !errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: %v, want ErrUnsupportedFormat naming %q", what, err, wantSub)
	}
}

// TestSegmentVersionBump: every file kind refuses a version this build
// does not write, past or future, with ErrUnsupportedFormat and a
// message naming both versions — never a misparse.
func TestSegmentVersionBump(t *testing.T) {
	encode := func(man *Manifest) []byte {
		mb, err := encodeManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		return mb
	}
	mb := encode(&Manifest{FormatVersion: ChunkSegmentVersion, RedoFile: RedoName})
	binary.LittleEndian.PutUint32(mb[4:8], ManifestVersion+1)
	// Re-wrapping is not needed: version is outside the checksummed
	// payload, so only the version check can fire.
	_, err := decodeManifest(mb)
	requireUnsupported(t, "future-version manifest", err, "manifest version 2, this build reads version 1")

	for _, v := range []int{1, 2, ChunkSegmentVersion + 1} {
		_, err := decodeManifest(encode(&Manifest{FormatVersion: v, RedoFile: RedoName}))
		requireUnsupported(t, "manifest of another segment format", err, fmt.Sprintf("segment format %d, this build reads format %d", v, ChunkSegmentVersion))
	}
	// An entry without a chunk size in a manifest of the current format
	// is corrupt, not a format of its own.
	whole := &Manifest{FormatVersion: ChunkSegmentVersion, RedoFile: RedoName, Tables: []TableEntry{
		{Name: "book", File: "t0000.seg", Size: 297, Rows: 5, Bytes: 182},
	}}
	_, err = decodeManifest(encode(whole))
	if want := `table "book" chunk size 0 is not a positive multiple of 64`; err == nil || errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), want) {
		t.Fatalf("entry without a chunk size: %v, want corruption naming %q", err, want)
	}

	for _, v := range []uint32{1, 2, 3, RedoBatchVersion + 1} {
		log := emptyRedoLog()
		binary.LittleEndian.PutUint32(log[4:8], v)
		_, _, err := fixtureTails(log)
		requireUnsupported(t, "redo log of another version", err, fmt.Sprintf("redo log version %d, this build reads version %d", v, RedoBatchVersion))
	}

	chunked, err := EncodeChunkedSegment(fixtureDB().Tables()[0].Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(chunked[4:8], ChunkSegmentVersion+1)
	_, err = DecodeChunkedSegment(chunked)
	requireUnsupported(t, "future-version chunked segment", err, fmt.Sprintf("chunked segment directory version %d, this build reads version %d", ChunkSegmentVersion+1, ChunkSegmentVersion))
}

// TestOpenRefusesLegacyStore: a store of an earlier format is refused,
// not converted. "legacy" holds whole-table segments under a
// one-row-per-record redo log; "legacy-mixed" is that store after a
// compaction chunked book and left author whole-table; "v2" is a store
// of segment format 2 with redo rows of version 3. Open fails with
// ErrUnsupportedFormat naming the segment format, and writes nothing:
// every byte of the directory stays as it was.
func TestOpenRefusesLegacyStore(t *testing.T) {
	for name, wantSub := range map[string]string{
		"legacy":       "segment format 1",
		"legacy-mixed": "segment format 2",
		"v2":           "segment format 2",
	} {
		t.Run(name, func(t *testing.T) {
			dir := copyStore(t, filepath.Join("testdata", "golden", name))
			read := func() map[string][]byte {
				files := make(map[string][]byte)
				for _, f := range storeFiles(t, dir) {
					data, err := os.ReadFile(filepath.Join(dir, f))
					if err != nil {
						t.Fatal(err)
					}
					files[f] = data
				}
				return files
			}
			before := read()
			reg := obs.NewRegistry()
			st, err := Open(dir, Options{Registry: reg})
			if st != nil {
				st.Close()
			}
			requireUnsupported(t, "Open of "+name, err, wantSub)
			if n := reg.Counter("storage.save.bytes_written").Value(); n != 0 {
				t.Fatalf("refused Open wrote %d bytes", n)
			}
			after := read()
			if len(after) != len(before) {
				t.Fatalf("refused Open changed the file set: %d files, had %d", len(after), len(before))
			}
			for f, data := range before {
				if !bytes.Equal(after[f], data) {
					t.Fatalf("refused Open changed %s", f)
				}
			}
		})
	}
}

// TestSegmentAccounting ties the in-memory byte/page accounting to the
// serialized representation: the decoded table must account exactly
// like the original, and the segment file must stay within a linear
// envelope of the accounted size (no hidden blow-up, no hidden
// compression the accounting misses).
func TestSegmentAccounting(t *testing.T) {
	const chunkRows = 64
	for _, tb := range append(fixtureDB().Tables(), multiChunkDB(200).Tables()...) {
		snap := tb.Snapshot()
		enc, err := EncodeChunkedSegment(snap, chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeChunkedSegment(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Bytes() != tb.Bytes() || dec.Pages() != tb.Pages() {
			t.Fatalf("table %q: decoded accounting %d bytes/%d pages, original %d/%d",
				tb.Name, dec.Bytes(), dec.Pages(), tb.Bytes(), tb.Pages())
		}
		// Structural upper bound on the wire size, computed from the
		// snapshot shape: the directory (envelope, table header, one
		// column descriptor per column, one reference per chunk), then per
		// chunk an envelope and per column a region header, bitmap words,
		// vectors (8 bytes per numeric row, <=5 bytes per string code),
		// and the chunk-local dictionary (at worst the whole dictionary in
		// every chunk).
		chunks := (snap.RowCount + chunkRows - 1) / chunkRows
		bound := envelopeSize + 64 + len(snap.Name) + len(snap.Parent) + chunks*(envelopeSize+24)
		for i := range snap.Columns {
			cs := &snap.Columns[i]
			bound += 32 + len(cs.Col.Name) + chunks*32 + 8*len(cs.NullWords)
			switch cs.Col.Typ {
			case rel.TInt, rel.TFloat:
				bound += 8 * snap.RowCount
			case rel.TString:
				bound += 5 * snap.RowCount
				for _, d := range cs.Dict {
					bound += chunks * (10 + len(d))
				}
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
// failure modes directly, framed as a manifest.
func TestEnvelopeRejects(t *testing.T) {
	payload := []byte("hello payload")
	good := wrapEnvelope(manMagic, ManifestVersion, payload)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"too short", func(d []byte) []byte { return d[:envelopeSize-1] }, "truncated"},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "not a manifest"},
		{"other version", func(d []byte) []byte { d[4]++; return d }, "manifest version 2, this build reads version 1"},
		{"bad length", func(d []byte) []byte { d[8]++; return d }, "disagrees with file size"},
		{"flipped payload", func(d []byte) []byte { d[envelopeSize] ^= 1; return d }, "checksum mismatch"},
		{"flipped crc", func(d []byte) []byte { d[16] ^= 1; return d }, "checksum mismatch"},
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-1] }, "disagrees with file size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mutate(append([]byte(nil), good...))
			_, err := openEnvelope("manifest", manMagic, ManifestVersion, d)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantSub)
			}
			if unsupported := errors.Is(err, ErrUnsupportedFormat); unsupported != (tc.name == "other version") {
				t.Fatalf("errors.Is(%v, ErrUnsupportedFormat) = %v", err, unsupported)
			}
		})
	}
	got, err := openEnvelope("manifest", manMagic, ManifestVersion, good)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact envelope rejected: %v", err)
	}
	if crc32.Checksum(payload, crcTable) == 0 {
		t.Fatal("degenerate checksum table")
	}
}
