package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// ackedAppends saves the fixture into dir and appends n batches of three
// book rows, one group commit each. It returns the redo log's bytes and
// the store's tables after each commit; index 0 is the state Save left.
func ackedAppends(t *testing.T, dir string, n int) (logs [][]byte, states []map[string]*rel.Table) {
	t.Helper()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		log, err := os.ReadFile(filepath.Join(dir, RedoName))
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.Built()
		if err != nil {
			t.Fatal(err)
		}
		tables := make(map[string]*rel.Table)
		for _, tb := range b.DB.Tables() {
			tables[tb.Name] = tb
		}
		logs, states = append(logs, log), append(states, tables)
		if i == n {
			return logs, states
		}
		batch := [][]rel.Value{bookRow(100 + 3*i), bookRow(101 + 3*i), bookRow(102 + 3*i)}
		if err := st.AppendBatch("book", batch); err != nil {
			t.Fatal(err)
		}
	}
}

// openTorn opens dir with a fresh registry, reads every table, and
// returns them with the torn-tail bytes Open counted.
func openTorn(t *testing.T, dir string) (map[string]*rel.Table, int64, error) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		return nil, 0, err
	}
	b, err := st.Built()
	if err != nil {
		return nil, 0, err
	}
	tables := make(map[string]*rel.Table)
	for _, tb := range b.DB.Tables() {
		tables[tb.Name] = tb
	}
	return tables, reg.Counter("storage.redo.torn_tail_bytes").Value(), nil
}

// dirBytes reads every file of a store directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, f := range storeFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		out[f] = data
	}
	return out
}

// TestTornAppendKeepsAcknowledgedBatches tears the last of four
// acknowledged appends after every byte count of its write — a crash
// inside the write — and requires every cut to reopen with the three
// earlier batches present and bit-identical, and the torn bytes counted.
// The cut twelve bytes in is a record header with no body.
func TestTornAppendKeepsAcknowledgedBatches(t *testing.T) {
	dir := t.TempDir()
	logs, states := ackedAppends(t, dir, 4)
	prev, last := logs[3], logs[4]
	// The last append's write starts where its log first differs from
	// the log before it.
	w := 0
	for w < len(prev) && prev[w] == last[w] {
		w++
	}
	if len(last)-w <= recordHeaderSize {
		t.Fatalf("the last append wrote %d bytes, want a record header and a body", len(last)-w)
	}
	for cut := w; cut < len(last); cut++ {
		if err := os.WriteFile(filepath.Join(dir, RedoName), last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := openTorn(t, dir)
		if err != nil {
			t.Fatalf("cut %d bytes into the last append: Open refused the store: %v", cut-w, err)
		}
		if torn != int64(cut-w) {
			t.Fatalf("cut %d bytes into the last append: %d torn-tail bytes counted", cut-w, torn)
		}
		servesOneOf(t, "torn last append", got, states[3:4])
	}
}

// TestTornGroupCommitSecondRecord tears a two-table group commit inside
// its second record. The first record verifies and replays: no appender
// of the batch was acknowledged, so either outcome is allowed, but it
// must be exactly that record. It then keeps every byte count of the
// write and zeroes the rest, as a machine crash may leave a file it had
// extended: each opens, with the first record if its bytes came through
// whole and with none of the write otherwise.
func TestTornGroupCommitSecondRecord(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	before, _, err := openTorn(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Built()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*rel.Table{"book": b.DB.Table("book"), "author": b.DB.Table("author")}
	want["book"].AppendRow(bookRow(100))

	path := filepath.Join(dir, RedoName)
	db := fixtureDB()
	runs := []redoRun{
		{table: "book", cols: db.Table("book").Columns, rows: [][]rel.Value{bookRow(100)}},
		{table: "author", cols: db.Table("author").Columns, rows: [][]rel.Value{{rel.Int(6), rel.Int(1), rel.Str("Lamport"), rel.Int(1941)}}},
	}
	if _, err := appendRedoBatch(path, runs, redoHeaderSize); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := redoHeaderSize + recordHeaderSize + int(binary.LittleEndian.Uint32(log[redoHeaderSize:]))
	for cut := second; cut < len(log); cut++ {
		if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := openTorn(t, dir)
		if err != nil {
			t.Fatalf("cut %d bytes into the second record: %v", cut-second, err)
		}
		if torn != int64(cut-second) {
			t.Fatalf("cut %d bytes into the second record: %d torn-tail bytes counted", cut-second, torn)
		}
		servesOneOf(t, "torn second record", got, []map[string]*rel.Table{want})
	}
	// Past the write's last non-zero byte, zeroing the rest changes nothing.
	for kept := redoHeaderSize; kept < len(bytes.TrimRight(log, "\x00")); kept++ {
		zeroed := append(log[:kept:kept], make([]byte, len(log)-kept)...)
		if err := os.WriteFile(path, zeroed, 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := openTorn(t, dir)
		if err != nil {
			t.Fatalf("%d bytes of the write kept, the rest zero: %v", kept-redoHeaderSize, err)
		}
		state, end := before, redoHeaderSize
		if kept >= second || len(bytes.TrimLeft(log[kept:second], "\x00")) == 0 {
			state, end = want, second // the first record is whole
		}
		if torn != int64(len(log)-end) {
			t.Fatalf("%d bytes of the write kept, the rest zero: %d torn-tail bytes counted, want %d", kept-redoHeaderSize, torn, len(log)-end)
		}
		servesOneOf(t, "zero-filled group commit", got, []map[string]*rel.Table{state})
	}
}

// TestRedoDamageBeforeTailRefused: a flipped bit anywhere in a record
// with records after it is damage, and Open refuses the store — in the
// length too, which its own checksum covers, so a length that now runs
// past end-of-file does not read as a torn tail. In the last record a
// flipped length or length checksum is refused as well, and a flip in
// the body or its checksum reads as a torn tail: the log is committed
// up to the records before it.
func TestRedoDamageBeforeTailRefused(t *testing.T) {
	dir := t.TempDir()
	logs, states := ackedAppends(t, dir, 4)
	log := logs[4]
	path := filepath.Join(dir, RedoName)
	// starts[i] is the offset of record i; the last entry is the log's end.
	starts := recordEnds(log)
	if len(starts) != 5 {
		t.Fatalf("the log holds %d records, want 4", len(starts)-1)
	}
	open := func(off int, mask byte) (map[string]*rel.Table, int64, error) {
		d := append([]byte(nil), log...)
		d[off] ^= mask
		if err := os.WriteFile(path, d, 0o644); err != nil {
			t.Fatal(err)
		}
		return openTorn(t, dir)
	}
	if _, _, err := open(starts[0]+3, 0x80); err == nil {
		t.Fatal("top byte of the first record's length set: Open accepted the store")
	}
	last := starts[3]
	for off := starts[0]; off < len(log); off++ {
		got, torn, err := open(off, 0x40)
		switch {
		case off < last+8:
			if err == nil {
				t.Fatalf("byte %d of record %d flipped: Open accepted the store", off, sort.SearchInts(starts, off+1)-1)
			}
		case err != nil:
			t.Fatalf("byte %d of the last record flipped: %v", off-last, err)
		default:
			if want := int64(len(log) - last); torn != want {
				t.Fatalf("byte %d of the last record flipped: %d torn-tail bytes counted, want %d", off-last, torn, want)
			}
			servesOneOf(t, "damaged last record", got, states[3:4])
		}
	}
}

// TestTornTailCutByNextAppend: opening a store whose redo log ends in a
// torn tail writes no byte of the directory. The next append cuts the
// tail off and commits after the last acknowledged batch, and a reopen
// finds no tail and every row. The tails are what a crash inside the
// last append's write leaves: a record header with no body; a whole
// record but its last byte, which is longer than the one-row append
// that follows it; and, from a crash of the machine that extended the
// file before its pages reached disk, the write's length of zero bytes
// and a record header followed by zero bytes.
func TestTornTailCutByNextAppend(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail func(write []byte) []byte
	}{
		{"header without body", func(w []byte) []byte { return w[:recordHeaderSize] }},
		{"all but the last byte", func(w []byte) []byte { return w[:len(w)-1] }},
		{"zero bytes", func(w []byte) []byte { return make([]byte, len(w)) }},
		{"header then zero bytes", func(w []byte) []byte {
			return append(w[:recordHeaderSize:recordHeaderSize], make([]byte, len(w)-recordHeaderSize)...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			logs, states := ackedAppends(t, dir, 3)
			prev := logs[2]
			tail := tc.tail(logs[3][len(prev):])
			path := filepath.Join(dir, RedoName)
			if err := os.WriteFile(path, append(prev[:len(prev):len(prev)], tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)

			got, torn, err := openTorn(t, dir)
			if err != nil {
				t.Fatal(err)
			}
			if torn != int64(len(tail)) {
				t.Fatalf("%d torn-tail bytes counted, want %d", torn, len(tail))
			}
			servesOneOf(t, tc.name, got, states[2:3])
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Built(); err != nil {
				t.Fatal(err)
			}
			after := dirBytes(t, dir)
			if len(after) != len(before) {
				t.Fatalf("opening the torn store changed the directory: %d files, had %d", len(after), len(before))
			}
			for f, b := range before {
				if !bytes.Equal(after[f], b) {
					t.Fatalf("opening the torn store changed %s", f)
				}
			}

			if err := st.Append("book", bookRow(200)); err != nil {
				t.Fatal(err)
			}
			live, err := st.Table("book")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(log, prev) {
				t.Fatal("the append rewrote committed bytes of the redo log")
			}
			if _, end, err := fixtureTails(log); err != nil || end != len(log) {
				t.Fatalf("after the append the log is committed to %d of %d bytes: %v", end, len(log), err)
			}
			again, torn, err := openTorn(t, dir)
			if err != nil {
				t.Fatal(err)
			}
			if torn != 0 {
				t.Fatalf("%d torn-tail bytes after the append, want 0", torn)
			}
			if n := states[2]["book"].RowCount() + 1; live.RowCount() != n {
				t.Fatalf("book has %d rows after the append, want %d", live.RowCount(), n)
			}
			tablesBitEqual(t, live, again["book"])
			tablesBitEqual(t, states[2]["author"], again["author"])
		})
	}
}

// refRedoBatchRecord is a redo record built in a buffer of its own
// from a header slice of rows, each value written as its column's type
// by a switch of its own: the oracle that pins appendRedoRecord's bytes.
func refRedoBatchRecord(table string, cols []rel.Column, rows [][]rel.Value) []byte {
	rec := appendString(make([]byte, recordHeaderSize), table)
	rec = binary.AppendUvarint(rec, uint64(len(rows)))
	for _, row := range rows {
		for ci, v := range row {
			if cols[ci].Nullable {
				rec = append(rec, boolByte(v.Null))
			}
			switch {
			case v.Null:
			case cols[ci].Typ == rel.TInt:
				rec = binary.AppendVarint(rec, v.I)
			case cols[ci].Typ == rel.TFloat:
				rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(v.F))
			default:
				rec = appendString(rec, v.S)
			}
		}
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recordHeaderSize))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[:4], crcTable))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[recordHeaderSize:], crcTable))
	return rec
}

// appendRedoBatch writes runs as one group commit at end, encoded into
// a fresh buffer: a store's flush without the buffer it keeps.
func appendRedoBatch(path string, runs []redoRun, end int64) (int64, error) {
	return writeRedoBatch(path, encodeRedoBatch(nil, runs), end)
}

// TestRedoBatchBytesPinned: a group commit of rows to two tables,
// interleaved, writes exactly the reference encoder's records — one per
// stretch of runs to the same table, in commit order — after the
// header, and reads back to the rows appended.
func TestRedoBatchBytesPinned(t *testing.T) {
	db := fixtureDB()
	bookCols, authorCols := db.Table("book").Columns, db.Table("author").Columns
	author := []rel.Value{rel.Int(6), rel.Int(1), rel.Str("Lamport"), rel.Int(1941)}
	nulls := []rel.Value{rel.Int(7), rel.Int(1), rel.Str(""), rel.NullOf(rel.TInt)}
	sparse := []rel.Value{rel.Int(103), rel.Int(-1), rel.NullOf(rel.TString), rel.NullOf(rel.TFloat)}
	book := func(rows ...[]rel.Value) redoRun { return redoRun{table: "book", cols: bookCols, rows: rows} }
	auth := func(rows ...[]rel.Value) redoRun { return redoRun{table: "author", cols: authorCols, rows: rows} }
	runs := []redoRun{
		book(bookRow(100)),
		book(bookRow(101), sparse),
		auth(author),
		book(bookRow(102)),
		auth(nulls),
		auth(author),
	}
	want := emptyRedoLog()
	want = append(want, refRedoBatchRecord("book", bookCols, [][]rel.Value{bookRow(100), bookRow(101), sparse})...)
	want = append(want, refRedoBatchRecord("author", authorCols, [][]rel.Value{author})...)
	want = append(want, refRedoBatchRecord("book", bookCols, [][]rel.Value{bookRow(102)})...)
	want = append(want, refRedoBatchRecord("author", authorCols, [][]rel.Value{nulls, author})...)

	path := filepath.Join(t.TempDir(), RedoName)
	if err := os.WriteFile(path, emptyRedoLog(), 0o644); err != nil {
		t.Fatal(err)
	}
	end, err := appendRedoBatch(path, runs, redoHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || end != int64(len(want)) {
		t.Fatalf("redo log is %d bytes (end %d), reference encoding %d bytes", len(got), end, len(want))
	}
	appended := map[string]*rel.Table{"book": rel.NewTable("book", bookCols), "author": rel.NewTable("author", authorCols)}
	for _, run := range runs {
		for _, row := range run.rows {
			appended[run.table].AppendRow(row)
		}
	}
	back, _, err := fixtureTails(got)
	if err != nil || !tailsEqual(back, appended) {
		t.Fatalf("pinned log does not read back to the rows appended: %v", err)
	}
}
