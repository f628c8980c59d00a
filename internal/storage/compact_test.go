package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rel"
)

func bookRow(id int) []rel.Value {
	return []rel.Value{rel.Int(int64(id)), rel.NullOf(rel.TInt), rel.Str(fmt.Sprintf("b-%d", id)), rel.Float(float64(id) + 0.5)}
}

// TestGroupCommitSingleFsync: a batch of rows commits under one redo
// flush, and a reopen replays every row bit-identically.
func TestGroupCommitSingleFsync(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]rel.Value
	for i := 0; i < 7; i++ {
		rows = append(rows, bookRow(100+i))
	}
	if err := st.AppendBatch("book", rows); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("storage.redo.group_commits").Value(); got != 1 {
		t.Fatalf("%d redo flushes for one batch, want 1", got)
	}
	if got := reg.Counter("storage.redo.records_appended").Value(); got != 7 {
		t.Fatalf("%d records appended, want 7", got)
	}
	live, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if live.RowCount() != 12 {
		t.Fatalf("live table has %d rows, want 12", live.RowCount())
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := again.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, live, replayed)
}

// TestGroupCommitConcurrentAppends drives appenders from many
// goroutines, whose batches coalesce when they queue behind a flush,
// then checks the live table and a reopen agree row for row.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Loading the table first keeps appenders on the append path only.
	if _, err := st.Table("book"); err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := st.Append("book", bookRow(1000+w*each+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	commits := reg.Counter("storage.redo.group_commits").Value()
	appended := reg.Counter("storage.redo.records_appended").Value()
	if appended != writers*each {
		t.Fatalf("%d records appended, want %d", appended, writers*each)
	}
	if commits < 1 || commits > appended {
		t.Fatalf("%d group commits for %d records", commits, appended)
	}
	live, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if live.RowCount() != 5+writers*each {
		t.Fatalf("live table has %d rows, want %d", live.RowCount(), 5+writers*each)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := again.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, live, replayed)
}

// TestCompactFoldsRedo: an explicit Compact rewrites only dirty
// tables into the next epoch, resets the redo log, removes obsolete
// files, and reopens bit-identically with an empty tail.
func TestCompactFoldsRedo(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// No redo yet: Compact is a no-op.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Manifest().Epoch != 0 {
		t.Fatalf("no-op compaction advanced epoch to %d", st.Manifest().Epoch)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append("book", bookRow(200+i)); err != nil {
			t.Fatal(err)
		}
	}
	live, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.RedoRows() != 0 {
		t.Fatalf("%d redo rows after compaction", st.RedoRows())
	}
	man := st.Manifest()
	if man.Epoch != 1 || man.RedoFile != "redo.e0001.log" {
		t.Fatalf("epoch %d, redo file %q after compaction", man.Epoch, man.RedoFile)
	}
	if reg.Counter("storage.compact.records_folded").Value() != 3 {
		t.Fatal("folded record count wrong")
	}
	// Dirty table rewritten into the new epoch, clean table untouched,
	// obsolete files gone.
	if man.Table("book").File != "t0000.e0001.seg" {
		t.Fatalf("book segment file %q", man.Table("book").File)
	}
	if man.Table("author").File != "t0001.seg" {
		t.Fatalf("clean table rewritten to %q", man.Table("author").File)
	}
	for _, gone := range []string{"t0000.seg", RedoName} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("obsolete file %s survived compaction", gone)
		}
	}
	// The live store keeps serving the same rows, and so does a reopen.
	after, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, live, after)
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := again.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, live, replayed)
	// Appends after compaction land in the new epoch's redo log. (live
	// is the cached table, which the append mutates — pin the expected
	// count first.)
	wantRows := live.RowCount() + 1
	if err := st.Append("book", bookRow(300)); err != nil {
		t.Fatal(err)
	}
	final, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := final.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if ft.RowCount() != wantRows {
		t.Fatalf("append after compaction lost: %d rows, want %d", ft.RowCount(), wantRows)
	}
}

// TestAutoCompactBoundsRedoTail pins the acceptance property: with a
// compaction threshold configured, the redo tail a reopen must replay
// never exceeds the threshold, and Built() rebuilds to the same
// physical-structure accounting.
func TestAutoCompactBoundsRedoTail(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{CompactRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := st.Append("book", bookRow(400+i)); err != nil {
			t.Fatal(err)
		}
	}
	live, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if live.RowCount() != 30 {
		t.Fatalf("live table has %d rows, want 30", live.RowCount())
	}
	liveBuilt, err := st.Built()
	if err != nil {
		t.Fatal(err)
	}
	// Close fences the store and waits out any background compaction,
	// so the directory below is quiescent.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tail := again.RedoRows(); tail > 10 {
		t.Fatalf("reopen must replay %d redo rows, threshold is 10", tail)
	}
	if again.Manifest().Epoch < 1 {
		t.Fatal("25 appends over a threshold of 10 never compacted")
	}
	replayed, err := again.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, live, replayed)
	reBuilt, err := again.Built()
	if err != nil {
		t.Fatal(err)
	}
	if reBuilt.StructBytes != liveBuilt.StructBytes {
		t.Fatalf("StructBytes %d after reopen, want %d", reBuilt.StructBytes, liveBuilt.StructBytes)
	}
}

// TestCloseFencesAsyncCompaction pins the shutdown race: an appender
// whose batch Close flushed calls maybeCompactAsync only after Close
// released flushMu, so the closed check (taken under s.mu, which Close
// holds when it fences) must keep that call from spawning a compaction
// that writes segment and manifest files after Close returned.
func TestCloseFencesAsyncCompaction(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg, CompactRecords: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Build a redo tail without tripping auto-compaction on the append
	// path, then arm the threshold so the post-Close call below is due
	// on every count except the closed fence.
	for i := 0; i < 3; i++ {
		if err := st.Append("book", bookRow(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	st.opts.CompactRecords = 1
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The racing appender's post-flush call, arriving after Close.
	st.maybeCompactAsync()
	st.compactWG.Wait()
	if got := reg.Counter("storage.compact.runs").Value(); got != 0 {
		t.Fatalf("compaction ran %d times after Close", got)
	}
	if epoch := st.Manifest().Epoch; epoch != 0 {
		t.Fatalf("manifest moved to epoch %d after Close", epoch)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "e0001") {
			t.Fatalf("post-Close compaction wrote %s", e.Name())
		}
	}
}

// TestCompactKillpoints simulates a crash at every compaction step.
// Any step before the manifest rename must leave both the live store
// and a reopen on the old epoch with the full redo tail; a crash after
// the rename (cleanup) lands on the new epoch with an empty tail. In
// both cases the data served is bit-identical.
func TestCompactKillpoints(t *testing.T) {
	steps := []struct {
		step      string
		wantEpoch int
		wantRedo  int
	}{
		{"segment:book", 0, 4},
		{"segment:author", 0, 4},
		{"redo", 0, 4},
		{"manifest", 0, 4},
		{"cleanup", 1, 0},
	}
	for _, tc := range steps {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Dirty both tables so every per-segment killpoint is reachable.
			for i := 0; i < 3; i++ {
				if err := st.Append("book", bookRow(500+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Append("author", []rel.Value{rel.Int(6), rel.Int(1), rel.Str("Knuth"), rel.Int(1938)}); err != nil {
				t.Fatal(err)
			}
			liveBook, err := st.Table("book")
			if err != nil {
				t.Fatal(err)
			}
			liveAuthor, err := st.Table("author")
			if err != nil {
				t.Fatal(err)
			}

			st.killCompact = func(step string) error {
				if step == tc.step {
					return fmt.Errorf("injected crash at %s", step)
				}
				return nil
			}
			if err := st.Compact(); err == nil {
				t.Fatalf("compaction survived injected crash at %s", tc.step)
			}
			st.killCompact = nil

			// The live store still serves the appended rows.
			for name, want := range map[string]*rel.Table{"book": liveBook, "author": liveAuthor} {
				got, err := st.Table(name)
				if err != nil {
					t.Fatalf("live store broken after crash at %s: %v", tc.step, err)
				}
				tablesBitEqual(t, want, got)
			}

			// A reopen (the "restart after crash") lands on a consistent
			// epoch — old before the rename, new after — and serves the
			// same rows either way, ignoring stray files from the
			// unfinished epoch.
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("store unopenable after crash at %s: %v", tc.step, err)
			}
			if got := re.Manifest().Epoch; got != tc.wantEpoch {
				t.Fatalf("crash at %s: reopened at epoch %d, want %d", tc.step, got, tc.wantEpoch)
			}
			if got := re.RedoRows(); got != tc.wantRedo {
				t.Fatalf("crash at %s: %d redo rows on reopen, want %d", tc.step, got, tc.wantRedo)
			}
			reBook, err := re.Table("book")
			if err != nil {
				t.Fatal(err)
			}
			tablesBitEqual(t, liveBook, reBook)
			reAuthor, err := re.Table("author")
			if err != nil {
				t.Fatal(err)
			}
			tablesBitEqual(t, liveAuthor, reAuthor)

			// Recovery: a clean compaction from the reopened store works
			// and converges on epoch ≥ 1 with an empty tail.
			if err := re.Compact(); err != nil {
				t.Fatalf("recovery compaction after crash at %s: %v", tc.step, err)
			}
			if re.Manifest().Epoch < 1 || re.RedoRows() != 0 {
				t.Fatalf("crash at %s: recovery landed on epoch %d with %d redo rows",
					tc.step, re.Manifest().Epoch, re.RedoRows())
			}
			finalBook, err := re.Table("book")
			if err != nil {
				t.Fatal(err)
			}
			tablesBitEqual(t, liveBook, finalBook)
		})
	}
}

// TestStoreServesDatasetLargerThanBudget is the tentpole acceptance
// test at the store level: columnar data several times the budget
// opens, serves bit-identically, and the resident-bytes gauges stay
// within bounds (chunk cache ≤ budget; overshoot ≤ one in-flight
// chunk).
func TestStoreServesDatasetLargerThanBudget(t *testing.T) {
	dir := t.TempDir()
	src := multiChunkDB(256).Table("fact")
	db := rel.NewDatabase()
	for _, name := range []string{"fact", "dim"} {
		tb := rel.NewTable(name, src.Columns)
		for r := 0; r < src.RowCount(); r++ {
			row := make([]rel.Value, len(src.Columns))
			for c := range src.Columns {
				row[c] = src.ValueAt(r, c)
			}
			tb.AppendRow(row)
		}
		db.Add(tb)
	}
	built, err := engine.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, built, Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	// Budget: half of one table's chunked bytes — far below the two
	// tables on disk, comfortably above the largest single chunk.
	enc, err := EncodeChunkedSegment(src.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	var chunkTotal, maxChunk int64
	for _, c := range d.Chunks {
		chunkTotal += c.Size
		if c.Size > maxChunk {
			maxChunk = c.Size
		}
	}
	budget := chunkTotal / 2
	if budget <= maxChunk {
		t.Fatalf("degenerate fixture: budget %d not above max chunk %d", budget, maxChunk)
	}

	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg, MemBudgetBytes: budget, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	gauge := reg.Gauge("storage.pager.resident_bytes")
	for pass := 0; pass < 2; pass++ {
		for _, name := range []string{"fact", "dim"} {
			got, err := st.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			want := db.Table(name)
			tablesBitEqual(t, want, got)
			if g := int64(gauge.Value()); g > budget {
				t.Fatalf("chunk cache gauge %d exceeds budget %d", g, budget)
			}
		}
	}
	if pk := st.pager.peakBytes(); pk > budget+maxChunk {
		t.Fatalf("peak %d exceeds budget %d + one chunk %d", pk, budget, maxChunk)
	}
	// Budget means budget: the pager is the only residency account, so
	// after every table has been handed out, everything the store still
	// holds fits the one bound the operator set.
	tables, chunks := st.ResidentBytes()
	if chunks > budget {
		t.Fatalf("resident chunk bytes %d exceed budget %d", chunks, budget)
	}
	if tables+chunks > budget+maxChunk {
		t.Fatalf("store holds %d table + %d chunk bytes resident, over budget %d + one chunk %d",
			tables, chunks, budget, maxChunk)
	}
}

// compactOracleStore saves the first base rows of multiChunkDB(base+tail)
// at 64 rows per chunk, appends the other tail rows through the redo
// log, and returns the store, its directory and the whole table.
func compactOracleStore(t *testing.T, base, tail int) (*Store, string, *rel.Table) {
	t.Helper()
	whole := multiChunkDB(base + tail).Table("fact")
	rowAt := func(r int) []rel.Value {
		row := make([]rel.Value, len(whole.Columns))
		for c := range row {
			row[c] = whole.ValueAt(r, c)
		}
		return row
	}
	saved := rel.NewTable("fact", whole.Columns)
	for r := 0; r < base; r++ {
		saved.AppendRow(rowAt(r))
	}
	db := rel.NewDatabase()
	db.Add(saved)
	built, err := engine.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, built, Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var rows [][]rel.Value
	for r := base; r < base+tail; r++ {
		rows = append(rows, rowAt(r))
	}
	if err := st.AppendBatch("fact", rows); err != nil {
		t.Fatal(err)
	}
	return st, dir, whole
}

// TestCompactMatchesEncode is the compaction oracle: the segment file a
// compaction writes is byte for byte EncodeChunkedSegment of the table
// assembled from the old segment and its redo tail, and the manifest
// entry pins that table's rows and bytes — whether the tail stays
// inside the last partial chunk, fills it exactly, spans several
// chunks, lands on an empty table, or follows a base of whole chunks.
// A second compaction copies chunks the first one wrote.
func TestCompactMatchesEncode(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, tail int
	}{
		{"inside-partial", 100, 10},
		{"fills-partial", 100, 28},
		{"spans-chunks", 100, 300},
		{"empty-base", 0, 150},
		{"whole-chunks-base", 128, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, dir, whole := compactOracleStore(t, tc.base, tc.tail)
			check := func(want *rel.Table) {
				t.Helper()
				live, err := st.Table("fact")
				if err != nil {
					t.Fatal(err)
				}
				tablesBitEqual(t, want, live)
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				e := st.Manifest().Table("fact")
				got, err := os.ReadFile(filepath.Join(dir, e.File))
				if err != nil {
					t.Fatal(err)
				}
				enc, err := EncodeChunkedSegment(live.Snapshot(), 64)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, enc) {
					t.Fatalf("compacted file is %d bytes, an encoding of the assembled table %d; first difference at %d",
						len(got), len(enc), firstDiff(got, enc))
				}
				if e.Rows != live.RowCount() || e.Bytes != live.Bytes() || e.ChunkRows != 64 {
					t.Fatalf("manifest entry says %d rows / %d bytes / %d rows per chunk, table has %d / %d / 64",
						e.Rows, e.Bytes, e.ChunkRows, live.RowCount(), live.Bytes())
				}
				after, err := st.Table("fact")
				if err != nil {
					t.Fatal(err)
				}
				tablesBitEqual(t, live, after)
			}
			check(whole)
			more := multiChunkDB(tc.base + tc.tail + 90).Table("fact")
			var rows [][]rel.Value
			for r := tc.base + tc.tail; r < more.RowCount(); r++ {
				row := make([]rel.Value, len(more.Columns))
				for c := range row {
					row[c] = more.ValueAt(r, c)
				}
				rows = append(rows, row)
			}
			if err := st.AppendBatch("fact", rows); err != nil {
				t.Fatal(err)
			}
			check(more)
		})
	}
}

// TestCompactRefusesDamagedChunk: a byte flipped in a chunk the fold
// copies, or in the partial chunk it decodes, fails Compact with
// nothing published — the old epoch, its redo tail, and no new segment
// file.
func TestCompactRefusesDamagedChunk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"copied", 1}, {"partial", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			st, dir, _ := compactOracleStore(t, 200, 10) // chunks 0-2 full, chunk 3 holds 8 rows
			e := st.Manifest().Table("fact")
			st.mu.Lock()
			d, err := st.chunkedDirLocked(e)
			st.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, e.File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ref := d.Chunks[tc.chunk]
			data[ref.Off+ref.Size/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = st.Compact()
			if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("Compact over a damaged %s chunk: %v, want a checksum mismatch", tc.name, err)
			}
			if man := st.Manifest(); man.Epoch != 0 || man.Table("fact").File != e.File || st.RedoRows() != 10 {
				t.Fatalf("failed Compact moved the store: epoch %d, file %s, %d redo rows", man.Epoch, man.Table("fact").File, st.RedoRows())
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range entries {
				if strings.Contains(f.Name(), "e0001") {
					t.Fatalf("failed Compact left %s behind", f.Name())
				}
			}
			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Manifest().Epoch != 0 || re.RedoRows() != 10 {
				t.Fatalf("reopen after failed Compact: epoch %d, %d redo rows", re.Manifest().Epoch, re.RedoRows())
			}
		})
	}
}
