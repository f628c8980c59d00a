package storage

import (
	"math/rand"
	"os"
	"path/filepath"
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

// openAll fully opens a store: Open, every table, and the physical
// rebuild. Any of these may fail; none may panic. A tiny memory budget
// forces the chunk pager through eviction on corrupted inputs too.
func openAll(dir string) (map[string]*rel.Table, error) {
	st, err := Open(dir, Options{MemBudgetBytes: 8 << 10})
	if err != nil {
		return nil, err
	}
	db, err := st.Database()
	if err != nil {
		return nil, err
	}
	if _, err := st.Built(); err != nil {
		return nil, err
	}
	out := make(map[string]*rel.Table)
	for _, tb := range db.Tables() {
		out[tb.Name] = tb
	}
	return out, nil
}

// corruptionTrial returns a trial runner over a pristine base store:
// each call clones the store, applies one corruption, and requires the
// clone to either fail cleanly or serve data bit-identical to the
// original. A panic, a partial table, or a wrong row count is a test
// failure.
func corruptionTrial(t *testing.T, base string, want map[string]*rel.Table) func(name string, corrupt func(dir string)) {
	return func(name string, corrupt func(dir string)) {
		dir := copyStore(t, base)
		corrupt(dir)
		got, err := openAll(dir)
		if err != nil {
			return // clean failure is a correct outcome
		}
		// The store opened despite the corruption: every served value
		// must still be bit-identical (e.g. the corruption hit slack
		// the formats do not have, which in practice cannot happen for
		// checksummed payloads — but if it ever does, the data must be
		// right).
		if len(got) != len(want) {
			t.Fatalf("%s: opened with %d tables, want %d", name, len(got), len(want))
		}
		for n, w := range want {
			g, ok := got[n]
			if !ok {
				t.Fatalf("%s: table %q vanished", name, n)
			}
			tablesBitEqual(t, w, g)
		}
	}
}

// baseTables opens the pristine base store for the rows every trial is
// held to.
func baseTables(t *testing.T, base string) map[string]*rel.Table {
	t.Helper()
	want, err := openAll(base)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// corruptionSweep runs the seeded flip/truncate battery over every
// file of the base store, which it only reads.
func corruptionSweep(t *testing.T, base string, want map[string]*rel.Table, trials int, seed int64) {
	files := storeFiles(t, base)
	rng := rand.New(rand.NewSource(seed))
	trial := corruptionTrial(t, base, want)
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
	want := baseTables(t, base)
	corruptionSweep(t, base, want, 120, 23)

	trial := corruptionTrial(t, base, want)
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
	trial("garbage appended to redo", func(dir string) {
		f, err := os.OpenFile(filepath.Join(dir, RedoName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
}

// TestCorruptionNeverLiesCompacted runs the battery over a compacted
// multi-chunk store (epoch-1 file names, per-chunk checksums, fresh
// redo tail), plus the compaction-specific worst cases: stray files
// from an unfinished epoch must be ignored, and a missing current-epoch
// redo log must fail cleanly, never serve a wrong row count.
func TestCorruptionNeverLiesCompacted(t *testing.T) {
	base := t.TempDir()
	saveCompactedMultiChunk(t, base)
	want := baseTables(t, base)
	corruptionSweep(t, base, want, 120, 31)

	trial := corruptionTrial(t, base, want)
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
