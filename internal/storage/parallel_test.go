package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rel"
)

// corruptLastByte flips the last byte of a file: in a segment that
// holds rows, a byte of its last chunk.
func corruptLastByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBuiltTablesEqualTableWithRedoTail: with a redo tail on some of six
// tables, every table Built assembles on up to GOMAXPROCS workers equals
// Table's assembly of it, bit for bit, at every GOMAXPROCS.
func TestBuiltTablesEqualTableWithRedoTail(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, manyTablesBuilt(t, 6), Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, name := range []string{"t1", "t4"} {
		var rows [][]rel.Value
		for r := range 70 {
			v := rel.Str(fmt.Sprint("tail", r%5))
			if r%3 == 0 {
				v = rel.NullOf(rel.TString)
			}
			rows = append(rows, []rel.Value{rel.Int(int64(1000 + r)), v})
		}
		if err := st.AppendBatch(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if st.RedoRows() != 140 {
		t.Fatalf("redo tail holds %d rows, want 140", st.RedoRows())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		b, err := st.Built()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", k, err)
		}
		if n := len(b.DB.Tables()); n != 6 {
			t.Fatalf("GOMAXPROCS %d: Built has %d tables, want 6", k, n)
		}
		for _, got := range b.DB.Tables() {
			want, err := st.Table(got.Name)
			if err != nil {
				t.Fatal(err)
			}
			tablesBitEqual(t, got, want)
		}
	}
}

// TestBuiltFailsAtLowestCorruptTable: with a chunk of tables 1 and 3
// corrupted, Built fails with table 1's error at every GOMAXPROCS, as a
// sequential assembly would, and leaves no goroutine behind; Table fails
// for those two tables alone.
func TestBuiltFailsAtLowestCorruptTable(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, manyTablesBuilt(t, 6), Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"t0001.seg", "t0003.seg"} {
		corruptLastByte(t, filepath.Join(dir, f))
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		before := runtime.NumGoroutine()
		b, err := st.Built()
		if err == nil || !strings.Contains(err.Error(), "of t1 checksum mismatch") {
			t.Fatalf("GOMAXPROCS %d: Built = %v, %v; want table t1's checksum error", k, b, err)
		}
		waitGoroutines(t, before)
	}
	for i := range 6 {
		name := fmt.Sprint("t", i)
		_, err := st.Table(name)
		if bad := name == "t1" || name == "t3"; bad != (err != nil) {
			t.Fatalf("Table(%s): %v", name, err)
		}
	}
}

// TestTableBesideAppendsAndCompact: Table reads its chunks outside the
// store lock while appends commit and compactions replace, and remove,
// the segment file it pinned. Every read succeeds with no fewer rows
// than the read before it, and the last sees every committed row.
func TestTableBesideAppendsAndCompact(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, manyTablesBuilt(t, 3), Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const batches, batchRows = 40, 5
	done := make(chan error, 1)
	go func() {
		for b := range batches {
			var rows [][]rel.Value
			for r := range batchRows {
				rows = append(rows, []rel.Value{rel.Int(int64(100 + b*batchRows + r)), rel.Str(fmt.Sprint(b))})
			}
			if err := st.AppendBatch("t2", rows); err != nil {
				done <- err
				return
			}
			if b%4 == 3 {
				if err := st.Compact(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	last := 0
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		tb, err := st.Table("t2")
		if err != nil {
			t.Fatal(err)
		}
		if tb.RowCount() < last {
			t.Fatalf("Table read %d rows after %d", tb.RowCount(), last)
		}
		last = tb.RowCount()
	}
	if want := 30 + batches*batchRows; last != want {
		t.Fatalf("the last read has %d rows, want %d", last, want)
	}
}

// TestPinnedReadSurvivesCompact: a read pinned before a compaction
// replaces and removes its segment file still reads the rows it pinned.
func TestPinnedReadSurvivesCompact(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, manyTablesBuilt(t, 3), Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendBatch("t2", [][]rel.Value{{rel.Int(100), rel.Str("x")}}); err != nil {
		t.Fatal(err)
	}
	want, err := st.Table("t2")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	e := st.man.Table("t2")
	r, err := st.pinLocked(e, 0, st.tailLocked("t2"))
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, e.File)); !os.IsNotExist(err) {
		t.Fatalf("compaction left the pinned file %s (stat: %v)", e.File, err)
	}
	got, err := st.assemble(r)
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, got, want)
}
