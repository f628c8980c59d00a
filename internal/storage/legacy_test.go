package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// The product writes neither the whole-table segment format nor the
// one-row redo framing; the encoders below are the retired writers,
// kept test-side so the golden files and the fuzz seeds still have
// their bytes. They produce no store:
// the legacy stores the conversion tests open are checked in under
// testdata/golden/legacy{,-mixed}, written once by the last build that
// had a legacy write path, and are never regenerated.

// encodeLegacySegment serializes a table snapshot as one version-1
// whole-table segment, deterministically (author.seg and book.seg pin
// the bytes).
func encodeLegacySegment(s *rel.TableSnapshot) []byte {
	var p []byte
	p = appendString(p, s.Name)
	p = appendString(p, s.Parent)
	p = binary.AppendUvarint(p, uint64(s.Generation))
	p = binary.AppendUvarint(p, uint64(s.RowCount))
	p = binary.AppendUvarint(p, uint64(len(s.Columns)))
	for i := range s.Columns {
		cs := &s.Columns[i]
		p = appendString(p, cs.Col.Name)
		p = append(p, byte(cs.Col.Typ), boolByte(cs.Col.Nullable))
		p = binary.AppendVarint(p, int64(cs.Col.LeafID))
		p = binary.AppendUvarint(p, uint64(cs.Col.Occurrence))
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
		p = binary.AppendUvarint(p, uint64(len(cs.Exc)))
		for _, e := range cs.Exc {
			p = binary.AppendUvarint(p, uint64(e.Row))
			p = appendValue(p, e.Val)
		}
	}
	return wrapEnvelope(segMagic, SegmentVersion, p)
}

// encodeLegacyRedoRecord frames one append as a checksummed version-1
// record.
func encodeLegacyRedoRecord(table string, row []rel.Value) []byte {
	var body []byte
	body = appendString(body, table)
	body = binary.AppendUvarint(body, uint64(len(row)))
	for _, v := range row {
		body = appendValue(body, v)
	}
	return frameRedoBody(body)
}

// emptyLegacyRedoLog is a version-1 log with no records.
func emptyLegacyRedoLog() []byte {
	return append(encodeRedoHeader(RedoVersion), encodeRedoFooter(0)...)
}

// legacyStores names the checked-in legacy stores. "legacy" is two
// whole-table segments at epoch 0 and a version-1 log holding three
// rows; "legacy-mixed" is the same store after a compaction that chunked
// book (epoch 1) and left author whole-table, with a two-row batched
// tail.
var legacyStores = []string{"legacy", "legacy-mixed"}

// copyLegacyStore copies a checked-in legacy store into a fresh
// directory, so opening (which converts) never touches the fixture.
func copyLegacyStore(t testing.TB, name string) string {
	t.Helper()
	return copyStore(t, filepath.Join("testdata", "golden", name))
}

// legacyWant is the row set a checked-in legacy store holds, built
// independently of any stored byte: the fixture tables plus the rows
// that were appended through its redo log.
func legacyWant(name string) map[string]*rel.Table {
	db := fixtureDB()
	book, author := db.Table("book"), db.Table("author")
	book.AppendRow([]rel.Value{rel.Int(6), rel.NullOf(rel.TInt), rel.Str("Appended"), rel.Float(1)})
	book.AppendRow([]rel.Value{rel.Int(7), rel.NullOf(rel.TInt), rel.Int(-1), rel.Float(math.NaN())})
	author.AppendRow([]rel.Value{rel.Int(6), rel.Int(3), rel.Str("Late"), rel.NullOf(rel.TInt)})
	if name == "legacy-mixed" {
		book.AppendRow(bookRow(8))
	}
	return map[string]*rel.Table{"book": book, "author": author}
}

// diskManifest decodes the manifest a store directory holds right now.
func diskManifest(t *testing.T, dir string) *Manifest {
	t.Helper()
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// requireCurrentFormat asserts what every live store promises: chunked
// entries only, and a batch-framed redo log on disk.
func requireCurrentFormat(t *testing.T, dir string, man *Manifest) {
	t.Helper()
	if man.FormatVersion != ChunkSegmentVersion {
		t.Fatalf("manifest format %d, want %d", man.FormatVersion, ChunkSegmentVersion)
	}
	for _, e := range man.Tables {
		if e.ChunkRows <= 0 {
			t.Fatalf("table %q is still a whole-table segment (%s)", e.Name, e.File)
		}
	}
	rb, err := os.ReadFile(filepath.Join(dir, man.RedoFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, version, err := readRedo(rb); err != nil || version != RedoBatchVersion {
		t.Fatalf("redo log %s: version %d, err %v; want batch framing", man.RedoFile, version, err)
	}
}

// requireStoreServes asserts the store's Database equals want bit for
// bit, generations and byte accounting included.
func requireStoreServes(t *testing.T, st *Store, want map[string]*rel.Table) {
	t.Helper()
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Tables()) != len(want) {
		t.Fatalf("store serves %d tables, want %d", len(db.Tables()), len(want))
	}
	for name, w := range want {
		got := db.Table(name)
		if got == nil {
			t.Fatalf("table %q missing", name)
		}
		tablesBitEqual(t, w, got)
	}
}

// TestOpenConvertsLegacyStore: Open turns a legacy store into the
// current formats once — same rows and generations, epoch + 1, nothing
// legacy left on disk — a second Open converts nothing, and the result
// does everything a store saved today does.
func TestOpenConvertsLegacyStore(t *testing.T) {
	for _, name := range legacyStores {
		t.Run(name, func(t *testing.T) {
			dir := copyLegacyStore(t, name)
			before := diskManifest(t, dir)
			want := legacyWant(name)

			st, err := Open(dir, Options{ChunkRows: 64})
			if err != nil {
				t.Fatal(err)
			}
			man := st.Manifest()
			if man.Epoch != before.Epoch+1 {
				t.Fatalf("converted store is at epoch %d, want %d", man.Epoch, before.Epoch+1)
			}
			if man.MappingSQL != before.MappingSQL || man.Design == nil {
				t.Fatalf("conversion dropped the design or the mapping SQL: %+v", man)
			}
			requireCurrentFormat(t, dir, man)
			if st.RedoRows() != 0 {
				t.Fatalf("converted store has %d redo rows, want the tail folded", st.RedoRows())
			}
			requireStoreServes(t, st, want)
			// Cleanup removed the old epoch: the directory holds exactly
			// what the manifest lists.
			files := map[string]bool{ManifestName: true, man.RedoFile: true}
			for _, e := range man.Tables {
				files[e.File] = true
			}
			for _, f := range storeFiles(t, dir) {
				if !files[f] {
					t.Fatalf("old-epoch file %s survived the conversion", f)
				}
				delete(files, f)
			}
			if len(files) != 0 {
				t.Fatalf("manifest lists files the directory lacks: %v", files)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// The second Open finds a current store and writes nothing.
			reg := obs.NewRegistry()
			st, err = Open(dir, Options{ChunkRows: 64, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := st.Manifest().Epoch; got != man.Epoch {
				t.Fatalf("second Open moved the store to epoch %d, want %d", got, man.Epoch)
			}
			if n := reg.Counter("storage.save.bytes_written").Value(); n != 0 {
				t.Fatalf("second Open wrote %d bytes, want none", n)
			}
			loads := reg.Counter("storage.segment.loads")
			if loads.Value() != 0 {
				t.Fatalf("second Open loaded %d segments, want none", loads.Value())
			}
			rb, err := os.ReadFile(filepath.Join(dir, man.RedoFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb, emptyRedoLog()) {
				t.Fatalf("converted redo log is not the empty batched log: %x", rb)
			}

			// Everything a store saved today does: chunk scans, a paged
			// view with a scan source per table, appends off the directory.
			for tname, w := range want {
				cs, err := st.ChunkScan(tname)
				if err != nil {
					t.Fatal(err)
				}
				if cs.RowCount() != w.RowCount() {
					t.Fatalf("chunk scan of %q covers %d rows, want %d", tname, cs.RowCount(), w.RowCount())
				}
				frag, release, err := cs.Chunk(0)
				if err != nil {
					t.Fatal(err)
				}
				if got := frag.ValueAt(0, 0); !got.BitEqual(w.ValueAt(0, 0)) {
					t.Fatalf("chunk 0 of %q starts with %v, want %v", tname, got, w.ValueAt(0, 0))
				}
				release()
			}
			paged, err := st.PagedBuilt()
			if err != nil {
				t.Fatal(err)
			}
			for tname := range want {
				if paged.ScanSource(tname) == nil {
					t.Fatalf("PagedBuilt has no scan source for %q", tname)
				}
			}
			loads0 := loads.Value()
			if err := st.Append("book", bookRow(9)); err != nil {
				t.Fatal(err)
			}
			if n := loads.Value() - loads0; n != 0 {
				t.Fatalf("append to the converted store loaded %d segments, want 0", n)
			}
			rb, err = os.ReadFile(filepath.Join(dir, man.RedoFile))
			if err != nil {
				t.Fatal(err)
			}
			recs, version, err := readRedo(rb)
			if err != nil || version != RedoBatchVersion || len(recs) != 1 {
				t.Fatalf("after one append the log reads version %d, %d rows, err %v; want one batched row", version, len(recs), err)
			}
			want["book"].AppendRow(bookRow(9))
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			requireStoreServes(t, re, want)
		})
	}
}

// TestLegacyConversionKillpoints injects a crash at every step of the
// conversion's publish. Open fails; the directory is the old store
// before the manifest rename and the new one after it, never a mix; and
// the next Open ends converted with the same rows either way.
func TestLegacyConversionKillpoints(t *testing.T) {
	for _, name := range legacyStores {
		for _, tc := range []struct {
			step      string
			published bool
		}{
			{"segment:book", false},
			{"segment:author", false},
			{"redo", false},
			{"manifest", false},
			{"cleanup", true},
		} {
			t.Run(name+"/"+tc.step, func(t *testing.T) {
				dir := copyLegacyStore(t, name)
				before := diskManifest(t, dir)
				reached := false
				_, err := open(dir, Options{ChunkRows: 64}, func(step string) error {
					if step == tc.step {
						reached = true
						return fmt.Errorf("injected crash at %s", step)
					}
					return nil
				})
				if !reached {
					t.Fatalf("conversion never reached step %s", tc.step)
				}
				if err == nil || !strings.Contains(err.Error(), "converting legacy store") {
					t.Fatalf("Open survived a crash at %s, or hid the conversion: %v", tc.step, err)
				}
				after := diskManifest(t, dir)
				if tc.published {
					if after.Epoch != before.Epoch+1 {
						t.Fatalf("crash at %s: directory at epoch %d, want the new epoch %d", tc.step, after.Epoch, before.Epoch+1)
					}
					requireCurrentFormat(t, dir, after)
				} else if after.Epoch != before.Epoch || after.RedoFile != before.RedoFile {
					t.Fatalf("crash at %s: directory moved to epoch %d / %s before the rename", tc.step, after.Epoch, after.RedoFile)
				}

				st, err := Open(dir, Options{ChunkRows: 64})
				if err != nil {
					t.Fatalf("store unopenable after crash at %s: %v", tc.step, err)
				}
				defer st.Close()
				if got := st.Manifest().Epoch; got != before.Epoch+1 {
					t.Fatalf("crash at %s: reopened at epoch %d, want %d", tc.step, got, before.Epoch+1)
				}
				requireCurrentFormat(t, dir, st.Manifest())
				requireStoreServes(t, st, legacyWant(name))
			})
		}
	}
}

// TestLegacyConversionNeedsWritableDirectory: a legacy store that cannot
// be converted does not open, the error names the conversion, and the
// store is intact once the obstacle is gone.
func TestLegacyConversionNeedsWritableDirectory(t *testing.T) {
	requireConversionError := func(t *testing.T, dir string) {
		t.Helper()
		_, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "converting legacy store") {
			t.Fatalf("Open of an unconvertible legacy store: %v, want a conversion error", err)
		}
	}
	requireConverts := func(t *testing.T, dir string) {
		t.Helper()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		requireStoreServes(t, st, legacyWant("legacy"))
	}
	t.Run("read-only directory", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root ignores directory permissions")
		}
		dir := copyLegacyStore(t, "legacy")
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		requireConversionError(t, dir)
		os.Chmod(dir, 0o755)
		requireConverts(t, dir)
	})
	t.Run("segment name taken", func(t *testing.T) {
		// Works as root too: a directory squats on the first file the
		// conversion creates.
		dir := copyLegacyStore(t, "legacy")
		squat := filepath.Join(dir, "t0000.e0001.seg")
		if err := os.Mkdir(squat, 0o755); err != nil {
			t.Fatal(err)
		}
		requireConversionError(t, dir)
		if err := os.Remove(squat); err != nil {
			t.Fatal(err)
		}
		requireConverts(t, dir)
	})
}

// TestNegativeChunkRowsIsAnError: ChunkRows < 0 selects nothing — it is
// an invalid chunk size wherever a segment would be written (Save,
// Compact, the conversion), and nothing is published.
func TestNegativeChunkRowsIsAnError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{ChunkRows: -1}); err == nil || !strings.Contains(err.Error(), "chunk size -1") {
		t.Fatalf("Save with ChunkRows -1: %v, want a chunk-size error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		t.Fatal("failed Save published a manifest")
	}
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{ChunkRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("book", bookRow(6)); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err == nil || !strings.Contains(err.Error(), "chunk size -1") {
		t.Fatalf("Compact with ChunkRows -1: %v, want a chunk-size error", err)
	}
	if st.Manifest().Epoch != 0 || st.RedoRows() != 1 {
		t.Fatalf("failed Compact moved the store: epoch %d, %d redo rows", st.Manifest().Epoch, st.RedoRows())
	}
	if _, err := Open(copyLegacyStore(t, "legacy"), Options{ChunkRows: -1}); err == nil || !strings.Contains(err.Error(), "chunk size -1") {
		t.Fatalf("conversion with ChunkRows -1: %v, want a chunk-size error", err)
	}
}
