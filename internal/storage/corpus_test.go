package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/rel"
)

// corpusEntry renders one seed in the Go fuzzing corpus file format.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// TestFuzzCorpusChecked pins the checked-in fuzz corpora under
// testdata/fuzz/: the interesting wire-format shapes are committed so
// CI fuzz-smoke starts from real coverage instead of an empty corpus.
// Regenerate with -update after a (version-bumped) format change; the
// redo seeds of versions 1 to 3 stay as inputs FuzzRedoDecode must
// reject.
func TestFuzzCorpusChecked(t *testing.T) {
	chunked := func(tb *rel.Table, rows int) []byte {
		enc, err := EncodeChunkedSegment(tb.Snapshot(), rows)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	book := fixtureDB().Table("book")
	multi := multiChunkDB(200).Table("fact")
	empty := rel.NewTable("e", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}})

	batched := redoLog(RedoBatchVersion, 0, batchedRecord(), batchedRecord())
	tagged := frameRecord(taggedBody("book", legacyRows...))
	batchedV3 := redoLog(3, 0, tagged, tagged)

	corpora := map[string]map[string][]byte{
		"FuzzChunkDecode": {
			"book-64":        chunked(book, 64),
			"multichunk-64":  chunked(multi, 64),
			"empty-default":  chunked(empty, DefaultChunkRows),
			"dir-garbage":    wrapEnvelope(chunkDirMagic, ChunkSegmentVersion, []byte{0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff}),
			"truncated-book": chunked(book, 64)[:envelopeSize+9],
		},
		"FuzzRedoDecode": {
			"empty-v1":   legacyRedoLog("book"),
			"empty-v2":   redoLog(2, 0),
			"single-v1":  legacyRedoLog("book", legacyRows[0]),
			"batched-v2": redoLog(2, 3, legacyFrame(taggedBody("book", legacyRows...))),
			"empty-v3":   redoLog(3, 0),
			"batched-v3": batchedV3,
			"torn-v3":    batchedV3[:len(batchedV3)-5],
			"zeroed-v3":  append(batchedV3[:len(batchedV3):len(batchedV3)], make([]byte, 13)...),
			"empty-v4":   emptyRedoLog(),
			"batched-v4": batched,
			"torn-v4":    batched[:len(batched)-5],
			"zeroed-v4":  append(batched[:len(batched):len(batched)], make([]byte, 13)...),
		},
		"FuzzEncodeChunkedSegment": fuzzEncodeSeeds(),
	}
	// The redo seeds of earlier versions are inputs the reader must
	// refuse.
	for _, name := range []string{"empty-v1", "single-v1", "empty-v2", "batched-v2", "empty-v3", "batched-v3", "torn-v3", "zeroed-v3"} {
		if _, _, err := fixtureTails(corpora["FuzzRedoDecode"][name]); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("redo seed %s: %v, want ErrUnsupportedFormat", name, err)
		}
	}
	for fuzzName, entries := range corpora {
		for name, data := range entries {
			path := filepath.Join("testdata", "fuzz", fuzzName, name)
			want := corpusEntry(data)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("corpus entry missing (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("corpus entry %s drifted from the current encoder (regenerate with -update)", path)
			}
		}
	}
	if t.Failed() {
		t.Fatal(fmt.Sprintf("checked-in corpora under %s are stale", filepath.Join("testdata", "fuzz")))
	}
}
