package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/rel"
)

// saveFixtureWithRedo saves the fixture and appends a couple of redo
// records, so corruption trials cover segments, manifest, and a
// non-empty redo log.
func saveFixtureWithRedo(t *testing.T, dir string, opts Options) {
	t.Helper()
	if _, err := Save(dir, fixtureBuilt(t), Options{MappingSQL: "CREATE ...", ChunkRows: opts.ChunkRows}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]rel.Value{
		{rel.Int(6), rel.NullOf(rel.TInt), rel.Str("Appended"), rel.Float(1)},
		{rel.Int(7), rel.NullOf(rel.TInt), rel.Str("Appended 2"), rel.Float(2)},
	}
	for _, r := range rows {
		if err := st.Append("book", r); err != nil {
			t.Fatal(err)
		}
	}
}

// saveCompactedMultiChunk builds a store exercising the other half of
// the format surface: multi-chunk segments, a completed compaction
// (epoch 1 file names), and a fresh redo tail on the new epoch.
func saveCompactedMultiChunk(t *testing.T, dir string) {
	t.Helper()
	built, err := engine.Build(multiChunkDB(200), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, built, Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	factRow := func(id int) []rel.Value {
		return []rel.Value{rel.Int(int64(id)), rel.NullOf(rel.TInt), rel.Str("appended"), rel.Float(float64(id))}
	}
	for i := 0; i < 3; i++ {
		if err := st.Append("fact", factRow(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Append("fact", factRow(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
}

// copyStore clones a store directory's files into a fresh directory.
func copyStore(t testing.TB, src string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range storeFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// storeFiles lists the store directory's file names sorted by name.
func storeFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

// openAll fully opens a store: Open, a chunk scan of every chunk of
// every table, and the physical rebuild over every table. Any of these
// may fail; none may panic. A tiny memory budget forces the chunk pager
// through eviction on corrupted inputs too.
func openAll(dir string) (map[string]*rel.Table, error) {
	st, err := Open(dir, Options{MemBudgetBytes: 8 << 10})
	if err != nil {
		return nil, err
	}
	for _, e := range st.Manifest().Tables {
		cs, err := st.ChunkScan(e.Name)
		if err != nil {
			return nil, err
		}
		for k := 0; k < cs.NumChunks(); k++ {
			_, release, err := cs.Chunk(k)
			if err != nil {
				return nil, err
			}
			release()
		}
	}
	b, err := st.Built()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*rel.Table)
	for _, tb := range b.DB.Tables() {
		out[tb.Name] = tb
	}
	return out, nil
}

// corruptionTrial returns a trial runner over a pristine base store
// whose committed redo prefixes are prefixes (prefixes[i] holds the
// first i records; the last is the whole store): each call clones the
// store, applies one corruption, and requires the clone to fail cleanly
// or serve rows that are right. Damage to a segment or the manifest
// must leave the data bit-identical to the original. Damage to the redo
// log alone may instead serve the segments bit-identical plus exactly
// the committed prefix tornPrefix names, or must be refused where it
// names none. A panic, a partial table, or a wrong row is a test
// failure.
func corruptionTrial(t *testing.T, base string, prefixes []map[string]*rel.Table) func(name string, corrupt func(dir string)) {
	redo := redoFile(t, base)
	baseLog, err := os.ReadFile(filepath.Join(base, redo))
	if err != nil {
		t.Fatal(err)
	}
	return func(name string, corrupt func(dir string)) {
		dir := copyStore(t, base)
		corrupt(dir)
		got, err := openAll(dir)
		if err != nil {
			return // clean failure is a correct outcome
		}
		// The store opened despite the corruption: the corruption hit
		// a torn redo tail, or slack the formats do not have (which in
		// practice cannot happen for checksummed payloads — but if it
		// ever does, the data must be right).
		allowed := prefixes[len(prefixes)-1:]
		if onlyFileDiffers(t, base, dir, redo) {
			log, err := os.ReadFile(filepath.Join(dir, redo))
			if err != nil {
				t.Fatal(err)
			}
			k := tornPrefix(baseLog, log)
			if k < 0 {
				t.Fatalf("%s: the redo log is damaged before its last record, and Open accepted the store", name)
			}
			allowed = prefixes[k : k+1]
		}
		servesOneOf(t, name, got, allowed)
	}
}

// recordEnds returns where the first i records of a well-formed redo
// log end, for i from 0 to all of them.
func recordEnds(log []byte) []int {
	ends := []int{redoHeaderSize}
	for end := redoHeaderSize; end < len(log); {
		end += recordHeaderSize + int(binary.LittleEndian.Uint32(log[end:]))
		ends = append(ends, end)
	}
	return ends
}

// tornPrefix returns how many records of the base redo log a store
// whose log was changed to got may serve, or -1 if it must refuse: the
// records that end at or before the first changed byte, when the change
// cuts the file short or lies in its last record or past it. A torn
// tail is only ever the last write, so damage to an earlier record,
// its length included, must be refused.
func tornPrefix(base, got []byte) int {
	p := 0
	for p < len(base) && p < len(got) && base[p] == got[p] {
		p++
	}
	ends := recordEnds(base)
	k := sort.SearchInts(ends, p+1) - 1
	if cut := p == len(got) && len(got) < len(base); k < 0 || (!cut && k < len(ends)-2) {
		return -1
	}
	return k
}

// servesOneOf requires the served tables to be bit-identical to exactly
// one of the allowed states, told apart by their row counts.
func servesOneOf(t *testing.T, name string, got map[string]*rel.Table, allowed []map[string]*rel.Table) {
	t.Helper()
	for _, want := range allowed {
		if len(got) != len(want) {
			t.Fatalf("%s: opened with %d tables, want %d", name, len(got), len(want))
		}
		match := true
		for n, w := range want {
			g, ok := got[n]
			if !ok {
				t.Fatalf("%s: table %q vanished", name, n)
			}
			match = match && g.RowCount() == w.RowCount()
		}
		if match {
			for n, w := range want {
				tablesBitEqual(t, w, got[n])
			}
			return
		}
	}
	t.Fatalf("%s: served row counts match no allowed state", name)
}

// redoFile names the store's current redo log.
func redoFile(t testing.TB, dir string) string {
	t.Helper()
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	return man.RedoFile
}

// onlyFileDiffers reports whether dir holds the same files as base,
// byte for byte, except possibly the one named file.
func onlyFileDiffers(t *testing.T, base, dir, file string) bool {
	t.Helper()
	files := storeFiles(t, base)
	if !slices.Equal(files, storeFiles(t, dir)) {
		return false
	}
	for _, f := range files {
		if f == file {
			continue
		}
		a, err := os.ReadFile(filepath.Join(base, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

// redoPrefixes opens the pristine base store once per committed prefix
// of its redo log — none of the appends, the first record, ..., all of
// them — for the rows every trial is held to.
func redoPrefixes(t *testing.T, base string) []map[string]*rel.Table {
	t.Helper()
	redo := redoFile(t, base)
	log, err := os.ReadFile(filepath.Join(base, redo))
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]*rel.Table
	for _, end := range recordEnds(log) {
		dir := copyStore(t, base)
		if err := os.WriteFile(filepath.Join(dir, redo), log[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		tables, err := openAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tables)
	}
	return out
}

// corruptionSweep runs the seeded flip/truncate battery over every
// file of the base store, which it only reads.
func corruptionSweep(t *testing.T, base string, prefixes []map[string]*rel.Table, trials int, seed int64) {
	files := storeFiles(t, base)
	rng := rand.New(rand.NewSource(seed))
	trial := corruptionTrial(t, base, prefixes)
	for i := 0; i < trials; i++ {
		f := files[rng.Intn(len(files))]
		data, err := os.ReadFile(filepath.Join(base, f))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 && len(data) > 0 {
			off := rng.Intn(len(data))
			bit := byte(1 << rng.Intn(8))
			trial("flip", func(dir string) {
				d := append([]byte(nil), data...)
				d[off] ^= bit
				if err := os.WriteFile(filepath.Join(dir, f), d, 0o644); err != nil {
					t.Fatal(err)
				}
			})
		} else {
			off := rng.Intn(len(data) + 1)
			trial("truncate", func(dir string) {
				if err := os.WriteFile(filepath.Join(dir, f), data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCorruptionNeverLies is the crash-recovery property test over the
// default (chunked) format, with deterministic worst cases on top of
// the random sweep.
func TestCorruptionNeverLies(t *testing.T) {
	base := t.TempDir()
	saveFixtureWithRedo(t, base, Options{})
	prefixes := redoPrefixes(t, base)
	corruptionSweep(t, base, prefixes, 120, 23)

	trial := corruptionTrial(t, base, prefixes)
	trial("empty manifest", func(dir string) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	trial("manifest is a segment", func(dir string) {
		seg, err := os.ReadFile(filepath.Join(dir, "t0000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	trial("segments swapped", func(dir string) {
		a, err := os.ReadFile(filepath.Join(dir, "t0000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "t0001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "t0000.seg"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "t0001.seg"), a, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	trial("segment deleted", func(dir string) {
		if err := os.Remove(filepath.Join(dir, "t0001.seg")); err != nil {
			t.Fatal(err)
		}
	})
	trial("redo log deleted", func(dir string) {
		if err := os.Remove(filepath.Join(dir, RedoName)); err != nil {
			t.Fatal(err)
		}
	})

	// Garbage after the last record is a torn tail: the store must
	// open, with every row.
	dir := copyStore(t, base)
	f, err := os.OpenFile(filepath.Join(dir, RedoName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := openAll(dir)
	if err != nil {
		t.Fatalf("garbage appended to redo: %v", err)
	}
	servesOneOf(t, "garbage appended to redo", got, prefixes[len(prefixes)-1:])
}

// TestCorruptionNeverLiesCompacted runs the battery over a compacted
// multi-chunk store (epoch-1 file names, per-chunk checksums, fresh
// redo tail), plus the compaction-specific worst cases: stray files
// from an unfinished epoch must be ignored, and a missing current-epoch
// redo log must fail cleanly, never serve a wrong row count.
func TestCorruptionNeverLiesCompacted(t *testing.T) {
	base := t.TempDir()
	saveCompactedMultiChunk(t, base)
	prefixes := redoPrefixes(t, base)
	corruptionSweep(t, base, prefixes, 120, 31)

	trial := corruptionTrial(t, base, prefixes)
	trial("stray next-epoch files", func(dir string) {
		// A crash mid-compaction leaves half-written epoch-2 files
		// behind; Open reads only what the manifest lists.
		for _, stray := range []string{"t0000.e0002.seg", "redo.e0002.log"} {
			if err := os.WriteFile(filepath.Join(dir, stray), []byte("partial garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	})
	trial("stray old-epoch segment", func(dir string) {
		seg, err := os.ReadFile(filepath.Join(dir, "t0000.e0001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "t0000.seg"), seg[:len(seg)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	trial("current redo log deleted", func(dir string) {
		if err := os.Remove(filepath.Join(dir, "redo.e0001.log")); err != nil {
			t.Fatal(err)
		}
	})
	trial("chunk bytes swapped within segment", func(dir string) {
		// Swap two chunk-sized spans past the directory: the per-chunk
		// CRCs must catch it even though the directory checksum passes.
		path := filepath.Join(dir, "t0000.e0001.seg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dirLen := int(chunkedDirLen(data))
		if len(data) < dirLen+128 {
			t.Fatalf("fixture segment too small: %d bytes, directory %d", len(data), dirLen)
		}
		d := append([]byte(nil), data...)
		for i := 0; i < 64; i++ {
			d[dirLen+i], d[dirLen+64+i] = d[dirLen+64+i], d[dirLen+i]
		}
		if err := os.WriteFile(path, d, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTruncatedSegmentWrongRowCount pins the specific disaster the
// issue calls out: a truncated segment must never open as a table with
// fewer rows than the manifest promises.
func TestTruncatedSegmentWrongRowCount(t *testing.T) {
	t.Run("chunked", func(t *testing.T) {
		base := t.TempDir()
		saveFixtureWithRedo(t, base, Options{ChunkRows: 64})
		seg := filepath.Join(base, "t0000.seg")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut += 7 {
			if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(base, Options{})
			if err != nil {
				continue
			}
			if tb, err := st.Table("book"); err == nil {
				t.Fatalf("truncation at %d served table with %d rows", cut, tb.RowCount())
			}
		}
	})
}
