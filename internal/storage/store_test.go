package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// fixtureDB builds a two-table parent/child database exercising every
// storage shape: all three types, NULLs, duplicate strings, strings that
// read as numbers, and non-finite and negative-zero floats.
func fixtureDB() *rel.Database {
	book := rel.NewTable("book", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "title", Typ: rel.TString, Nullable: true, LeafID: 3},
		{Name: "price", Typ: rel.TFloat, Nullable: true, LeafID: 4},
	})
	bookRows := [][]rel.Value{
		{rel.Int(1), rel.NullOf(rel.TInt), rel.Str("TCP/IP Illustrated"), rel.Float(65.95)},
		{rel.Int(2), rel.NullOf(rel.TInt), rel.Str("Data on the Web"), rel.Float(math.NaN())},
		{rel.Int(3), rel.NullOf(rel.TInt), rel.Str("TCP/IP Illustrated"), rel.Float(math.Copysign(0, -1))},
		{rel.Int(4), rel.NullOf(rel.TInt), rel.NullOf(rel.TString), rel.Float(math.Inf(1))},
		{rel.Int(5), rel.NullOf(rel.TInt), rel.Str("1998"), rel.Float(39.95)},
	}
	for _, r := range bookRows {
		book.AppendRow(r)
	}
	author := rel.NewTable("author", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt},
		{Name: "last", Typ: rel.TString, LeafID: 7},
		{Name: "born", Typ: rel.TInt, Nullable: true, LeafID: 8, Occurrence: 1},
	})
	authorRows := [][]rel.Value{
		{rel.Int(1), rel.Int(1), rel.Str("Stevens"), rel.Int(1951)},
		{rel.Int(2), rel.Int(2), rel.Str("Abiteboul"), rel.NullOf(rel.TInt)},
		{rel.Int(3), rel.Int(2), rel.Str("Buneman"), rel.Int(1943)},
		{rel.Int(4), rel.Int(2), rel.Str("Suciu"), rel.Int(1959)},
		{rel.Int(5), rel.Int(3), rel.Str("Stevens"), rel.Int(1951)},
	}
	author.Parent = "book"
	for _, r := range authorRows {
		author.AppendRow(r)
	}
	db := rel.NewDatabase()
	db.Add(book)
	db.Add(author)
	return db
}

// fixtureConfig is a physical design using all three structure kinds,
// so Built() reconstruction is exercised end to end.
func fixtureConfig() *physical.Config {
	return &physical.Config{
		Indexes: []*physical.Index{
			{Name: "ix_author_last", Table: "author", Key: []string{"last"}, Include: []string{"born"}},
		},
		Views: []*physical.View{
			{Name: "v_book_author", Outer: "book", Inner: "author",
				OuterCols: []string{"title"}, InnerCols: []string{"last"}},
		},
		Partitions: []*physical.VPartition{
			{Table: "author", Groups: [][]string{{"last"}, {"born"}}},
		},
	}
}

func fixtureBuilt(t *testing.T) *engine.Built {
	t.Helper()
	b, err := engine.Build(fixtureDB(), fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tablesBitEqual compares two tables through the public API down to the
// bit level: schema, row count, byte accounting, and every
// value under Value.BitEqual.
func tablesBitEqual(t *testing.T, a, b *rel.Table) {
	t.Helper()
	if a.Name != b.Name || a.Parent != b.Parent {
		t.Fatalf("identity differs: %q/%q vs %q/%q", a.Name, a.Parent, b.Name, b.Parent)
	}
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d differs: %+v vs %+v", i, a.Columns[i], b.Columns[i])
		}
	}
	if a.RowCount() != b.RowCount() {
		t.Fatalf("row count %d vs %d", a.RowCount(), b.RowCount())
	}
	if a.Bytes() != b.Bytes() || a.Pages() != b.Pages() {
		t.Fatalf("accounting %d bytes/%d pages vs %d/%d", a.Bytes(), a.Pages(), b.Bytes(), b.Pages())
	}
	for r := 0; r < a.RowCount(); r++ {
		for c := range a.Columns {
			if av, bv := a.ValueAt(r, c), b.ValueAt(r, c); !av.BitEqual(bv) {
				t.Fatalf("value (%d,%d): %v vs %v", r, c, av, bv)
			}
			if a.IsNullAt(r, c) != b.IsNullAt(r, c) {
				t.Fatalf("nullness (%d,%d) differs", r, c)
			}
		}
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	built := fixtureBuilt(t)
	man, err := Save(dir, built, Options{MappingSQL: "CREATE TABLE book (...)"})
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != ChunkSegmentVersion || man.Design == nil || man.MappingSQL == "" {
		t.Fatalf("manifest incomplete: %+v", man)
	}
	if len(man.Tables) != 2 || man.Tables[0].Name != "book" || man.Tables[1].Name != "author" {
		t.Fatalf("manifest table order wrong: %+v", man.Tables)
	}
	if man.Tables[1].Parent != "book" {
		t.Fatalf("parent not recorded: %+v", man.Tables[1])
	}

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := st.Built()
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range built.DB.Tables() {
		got := reopened.DB.Table(orig.Name)
		if got == nil {
			t.Fatalf("table %q missing after reopen", orig.Name)
		}
		tablesBitEqual(t, orig, got)
	}
	// The rebuilt physical structures must account to the same size —
	// indexes, views, and partitions are derived deterministically from
	// bit-identical base tables.
	if reopened.StructBytes != built.StructBytes {
		t.Fatalf("StructBytes %d after reopen, want %d", reopened.StructBytes, built.StructBytes)
	}
	if reopened.ViewTable("v_book_author") == nil {
		t.Fatal("materialized view not rebuilt")
	}
	// The partition is a column set of author: a plan scanning both of its
	// groups runs on the reopened Built exactly as the reference runs it
	// on the saved one.
	author := func(c string) *sqlast.ColRef { return &sqlast.ColRef{Table: "author", Column: c} }
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: author(rel.IDColumn), As: "ID"}, {Col: author("last"), As: "last"}, {Col: author("born"), As: "born"}},
		From:  []string{"author"},
		Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe, Col: *author("born"), Value: rel.Int(1950)}},
	}}, OrderBy: "ID"}
	plan, err := optimizer.New(stats.FromDatabase(built.DB)).PlanQuery(q, reopened.Config)
	if err != nil {
		t.Fatal(err)
	}
	if g := plan.Branches[0].Driver.Groups; len(g) != 2 {
		t.Fatalf("plan drives off author's groups %v, want both", g)
	}
	want, err := engine.ExecuteReference(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Execute(reopened, plan)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "partition scan after reopen", got, want)
}

func TestLazyLoadingAndMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	if _, err := Save(dir, fixtureBuilt(t), Options{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("storage.save.bytes_written").Value() <= 0 {
		t.Fatal("save wrote no accounted bytes")
	}
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loads := reg.Counter("storage.segment.loads")
	if loads.Value() != 0 {
		t.Fatalf("Open eagerly loaded %d segments", loads.Value())
	}
	if _, err := st.Table("book"); err != nil {
		t.Fatal(err)
	}
	if loads.Value() != 1 {
		t.Fatalf("after one Table call: %d loads, want 1", loads.Value())
	}
	// The store keeps no assembled table: every call is one assembly.
	if _, err := st.Table("book"); err != nil {
		t.Fatal(err)
	}
	if loads.Value() != 2 {
		t.Fatalf("after two Table calls: %d loads, want 2", loads.Value())
	}
	if _, err := st.Built(); err != nil {
		t.Fatal(err)
	}
	if loads.Value() != 4 {
		t.Fatalf("after Built over two tables: %d loads, want 4", loads.Value())
	}
	if reg.Counter("storage.segment.bytes_read").Value() <= 0 {
		t.Fatal("no segment bytes accounted")
	}
	if _, err := st.Table("nope"); err == nil {
		t.Fatal("unknown table served")
	}
}

func TestRedoReplay(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An append is logged as its columns' types: the int -1 converts
	// losslessly to the VARCHAR "-1", and a reopen replays it as that.
	appends := [][]rel.Value{
		{rel.Int(6), rel.NullOf(rel.TInt), rel.Str("New Book"), rel.Float(12.5)},
		{rel.Int(7), rel.NullOf(rel.TInt), rel.Int(-1), rel.Float(math.NaN())},
	}
	for _, row := range appends {
		if err := st.Append("book", row); err != nil {
			t.Fatal(err)
		}
	}
	live, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if live.RowCount() != 7 {
		t.Fatalf("live table has %d rows after appends, want 7", live.RowCount())
	}
	if v := live.ValueAt(6, 2); !v.BitEqual(rel.Str("-1")) {
		t.Fatalf("appended title %#v, want the string -1", v)
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

	// Width mismatches are refused before touching the table.
	if err := st.Append("book", []rel.Value{rel.Int(99)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := st.Append("ghost", appends[0]); err == nil {
		t.Fatal("append to unknown table accepted")
	}
}

// TestAppendRefusesValuesThatDoNotFit: AppendBatch refuses a batch
// holding a value that does not convert losslessly to its column's type,
// or a NULL of any type in a NOT NULL column, with a *TypeError naming
// the table, column and row, before anything is logged — the rows of the batch that did convert included. The redo
// log's bytes stay as they were, and a reopen serves exactly the rows
// from before.
func TestAppendRefusesValuesThatDoNotFit(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("book", []rel.Value{rel.Int(6), rel.NullOf(rel.TInt), rel.Str("Logged"), rel.Float(1)}); err != nil {
		t.Fatal(err)
	}
	before, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	redo := filepath.Join(dir, st.man.RedoFile)
	logged, err := os.ReadFile(redo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		col  string
		row  int
		rows [][]rel.Value
	}{
		{"price", 1, [][]rel.Value{
			{rel.Int(7), rel.NullOf(rel.TInt), rel.Int(1998), rel.Str("39.95")}, // converts: "1998", 39.95
			{rel.Int(8), rel.NullOf(rel.TInt), rel.Str("Cheap"), rel.Str("cheap")},
		}},
		{"ID", 0, [][]rel.Value{{rel.Float(8.5), rel.NullOf(rel.TInt), rel.Str("Half"), rel.Float(1)}}},
		{"title", 0, [][]rel.Value{{rel.Int(9), rel.NullOf(rel.TInt), {Typ: rel.TString, S: "Stray", I: 1}, rel.Float(1)}}},
		{"PID", 0, [][]rel.Value{{rel.Int(9), rel.Str("01"), rel.Str("Padded"), rel.Float(1)}}},
		{"ID", 1, [][]rel.Value{
			{rel.Int(9), rel.NullOf(rel.TInt), rel.Str("Fine"), rel.Float(1)},
			{rel.NullOf(rel.TInt), rel.NullOf(rel.TInt), rel.Str("No ID"), rel.Float(1)},
		}},
		{"ID", 0, [][]rel.Value{{rel.NullOf(rel.TString), rel.NullOf(rel.TInt), rel.Str("No ID"), rel.Float(1)}}},
	} {
		err := st.AppendBatch("book", tc.rows)
		var te *TypeError
		if !errors.As(err, &te) || te.Table != "book" || te.Column != tc.col || te.Row != tc.row {
			t.Fatalf("%s: AppendBatch: %v, want a *TypeError for book.%s row %d", tc.col, err, tc.col, tc.row)
		}
		if after, err := os.ReadFile(redo); err != nil || !bytes.Equal(after, logged) {
			t.Fatalf("%s: the refused batch changed the redo log (%d bytes, was %d; %v)", tc.col, len(after), len(logged), err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := again.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, before, reopened)
}

// TestAppendConvertsIntoACopy: a value that converts losslessly is
// logged and replayed as its column's type — the VARCHAR "1998" in the
// INT column born comes back as Int(1998), before and after a reopen —
// while the caller's rows, which AppendBatch reads in place, are left
// as they were.
func TestAppendConvertsIntoACopy(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]rel.Value{
		{rel.Int(6), rel.Int(3), rel.Str("Knuth"), rel.Str("1998")},
		{rel.Int(7), rel.Int(3), rel.Str("Gray"), rel.Int(1944)},
	}
	want := [][]rel.Value{
		{rel.Int(6), rel.Int(3), rel.Str("Knuth"), rel.Int(1998)},
		rows[1],
	}
	given := [][]rel.Value{slices.Clone(rows[0]), slices.Clone(rows[1])}
	if err := st.AppendBatch("author", rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for ci, v := range rows[i] {
			if !v.BitEqual(given[i][ci]) {
				t.Fatalf("row %d column %d is %#v after AppendBatch, was %#v", i, ci, v, given[i][ci])
			}
		}
	}
	check := func(label string, st *Store) {
		t.Helper()
		author, err := st.Table("author")
		if err != nil {
			t.Fatal(err)
		}
		got := author.Rows()[author.RowCount()-len(want):]
		for i := range want {
			for ci, v := range want[i] {
				if !got[i][ci].BitEqual(v) {
					t.Fatalf("%s: appended row %d column %d is %#v, want %#v", label, i, ci, got[i][ci], v)
				}
			}
		}
	}
	check("before reopen", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check("replayed", again)
}

// TestOpenRefusesRecordsThatDoNotFit: Open decodes the redo log into
// the tail tables under each table's columns, so a checksummed record
// whose body does not decode under them — a row cut short, a null flag
// that is not 0 or 1, a row longer than the table, or a table the store
// does not have — refuses the store at Open instead of opening a store
// whose every read of that table fails. The refusing Open writes
// nothing.
func TestOpenRefusesRecordsThatDoNotFit(t *testing.T) {
	cols := fixtureDB().Table("book").Columns
	good := appendRedoRecord(nil, []redoRun{{table: "book", cols: cols, rows: [][]rel.Value{bookRow(6), bookRow(7)}}})[recordHeaderSize:]
	// good's body: name, row count, then bookRow(6)'s ID varint (one
	// byte) and PID null flag (1, NULL).
	pid := len(appendString(nil, "book")) + 2
	if good[pid] != 1 {
		t.Fatalf("fixture layout drifted: PID null flag %d", good[pid])
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"row cut short", "truncated", good[:len(good)-3]},
		{"null flag 2", "null flag 2 of column \"PID\" is not a boolean", func() []byte {
			b := slices.Clone(good)
			b[pid] = 2
			return b
		}()},
		{"trailing bytes", "trailing bytes", append(slices.Clone(good), 0)},
		{"unknown table", `unknown table "ghost"`, appendRedoRecord(nil, []redoRun{{table: "ghost", cols: cols, rows: [][]rel.Value{bookRow(6)}}})[recordHeaderSize:]},
	} {
		dir := t.TempDir()
		if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, RedoName)
		log := append(emptyRedoLog(), frameRecord(tc.body)...)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open: %v, want an error naming %q", tc.name, err, tc.want)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
			t.Fatalf("%s: the refusing Open changed the redo log (%v)", tc.name, err)
		}
	}
}

// TestAppendDoesNotAssembleColdTable is the regression test for the
// write path of a budgeted store: AppendBatch used to load (and cache)
// the whole table just to compare row widths. A chunked table's verified
// directory carries its columns, so an append to a cold table must load
// no segment — and a later Table still sees the appended rows.
func TestAppendDoesNotAssembleColdTable(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{MemBudgetBytes: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendBatch("book", [][]rel.Value{bookRow(6), bookRow(7)}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("storage.segment.loads").Value(); n != 0 {
		t.Fatalf("append to a cold table loaded %d segments, want 0", n)
	}
	if tb, _ := st.ResidentBytes(); tb != 0 {
		t.Fatalf("append left %d assembled-table bytes resident, want 0", tb)
	}
	if err := st.Append("book", []rel.Value{rel.Int(99)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := st.Append("ghost", bookRow(8)); err == nil {
		t.Fatal("append to unknown table accepted")
	}
	book, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if book.RowCount() != 7 {
		t.Fatalf("table has %d rows after appends, want 7", book.RowCount())
	}
	if got := book.ValueAt(6, 2); got.String() != "b-7" {
		t.Fatalf("last appended title = %v, want b-7", got)
	}
}

// TestBuiltIsUnaffectedByAppends pins the ownership rule for a resident
// Built: its tables belong to it, so a scan over them may run while the
// store appends (no race under -race), and the Built still describes
// the rows it was built over afterwards.
func TestBuiltIsUnaffectedByAppends(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b, err := st.Built()
	if err != nil {
		t.Fatal(err)
	}
	book := b.DB.Table("book")
	rows := book.RowCount()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		row := make([]rel.Value, len(book.Columns))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for r := 0; r < book.RowCount(); r++ {
				book.ReadRowInto(row, r)
			}
		}
	}()
	for id := 6; id < 56; id++ {
		if err := st.Append("book", bookRow(id)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	if book.RowCount() != rows {
		t.Fatalf("Built's book moved to %d rows under appends, was %d", book.RowCount(), rows)
	}
	fresh, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.RowCount() != rows+50 {
		t.Fatalf("a fresh assembly has %d rows, want %d", fresh.RowCount(), rows+50)
	}
}

// TestTableCallsReturnOwnedTables: every Table call is a fresh assembly
// the caller owns — mutating one reaches neither the next call's table
// nor the durable state.
func TestTableCallsReturnOwnedTables(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	first.AppendRow(bookRow(6))
	second, err := st.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("two Table calls returned the same table")
	}
	tablesBitEqual(t, fixtureDB().Table("book"), second)
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reopened, err := re.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, second, reopened)
}

func TestManifestIsCommitPoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash before the manifest rename: segments exist but
	// no manifest — the store must be unopenable.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("store without manifest opened")
	}
}

// manyTablesBuilt is a build of n small tables t0 … t(n-1) with no
// physical design.
func manyTablesBuilt(t *testing.T, n int) *engine.Built {
	t.Helper()
	db := rel.NewDatabase()
	for i := range n {
		tb := rel.NewTable(fmt.Sprintf("t%d", i), []rel.Column{
			{Name: rel.IDColumn, Typ: rel.TInt},
			{Name: "v", Typ: rel.TString, Nullable: true, LeafID: 1},
		})
		for r := range 10 * (i + 1) {
			tb.AppendRow([]rel.Value{rel.Int(int64(r + 1)), rel.Str(fmt.Sprint(r % 7))})
		}
		db.Add(tb)
	}
	b, err := engine.Build(db, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitGoroutines fails unless the goroutine count falls back to want
// within a second: a worker that has signalled its end may still be
// exiting when its caller returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), want)
		}
	}
}

// TestSaveFailsAtLowestFailingTable: when the segment files of tables 1
// and 3 cannot be created, Save returns table 1's error at every
// GOMAXPROCS, as a sequential save would, writes neither the redo log
// nor the manifest, and leaves no goroutine behind.
func TestSaveFailsAtLowestFailingTable(t *testing.T) {
	built := manyTablesBuilt(t, 6)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		dir := t.TempDir()
		for _, f := range []string{"t0001.seg", "t0003.seg"} {
			if err := os.Mkdir(filepath.Join(dir, f), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		before := runtime.NumGoroutine()
		_, err := Save(dir, built, Options{})
		if err == nil || !strings.Contains(err.Error(), "t0001.seg") {
			t.Fatalf("GOMAXPROCS %d: Save error %v, want table 1's", k, err)
		}
		waitGoroutines(t, before)
		for _, f := range []string{ManifestName, RedoName} {
			if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("GOMAXPROCS %d: failed Save left %s (stat: %v)", k, f, err)
			}
		}
	}
}

// TestSaveRaisesShellPanicOnCaller: saving a paged view, whose tables
// are virtual shells, panics on the caller's goroutine, where it can be
// recovered, and writes no manifest.
func TestSaveRaisesShellPanicOnCaller(t *testing.T) {
	src := t.TempDir()
	if _, err := Save(src, manyTablesBuilt(t, 4), Options{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedBuilt()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	p := func() (p any) {
		defer func() { p = recover() }()
		Save(dir, paged, Options{})
		return nil
	}()
	if msg, _ := p.(string); !strings.Contains(msg, "virtual shell") {
		t.Fatalf("Save raised %v, want the virtual-shell panic", p)
	}
	waitGoroutines(t, before)
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("panicking Save left a manifest (stat: %v)", err)
	}
}

func TestOpenRejectsEscapingFileNames(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	man.Tables[0].File = "../outside.seg"
	evil, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "not a bare name") {
		t.Fatalf("path-escaping manifest accepted: %v", err)
	}
	// No writer ever produced a store without a redo log: a manifest
	// that names none is corrupt, not a variant.
	man.Tables[0].File = "t0000.seg"
	man.RedoFile = ""
	noRedo, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeManifest(noRedo); err == nil || !strings.Contains(err.Error(), "corrupt manifest: redo log") {
		t.Fatalf("manifest without a redo log accepted: %v", err)
	}
}

// TestChunkScanRefusesRowDrift: a manifest whose every entry claims
// one row more than its segment holds is refused by the chunk-scan paths
// as it is by assembly: Store.ChunkScan and Store.PagedBuilt return an
// error, as Store.Built does, instead of serving the segment's rows.
func TestChunkScanRefusesRowDrift(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Tables {
		man.Tables[i].Rows++
	}
	drifted, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Built(); err == nil {
		t.Fatal("Built served segments disagreeing with the manifest's row counts")
	}
	for _, e := range man.Tables {
		if cs, err := st.ChunkScan(e.Name); err == nil {
			t.Fatalf("ChunkScan(%s) served %d rows, manifest says %d", e.Name, cs.RowCount(), e.Rows)
		}
	}
	if _, err := st.PagedBuilt(); err == nil {
		t.Fatal("PagedBuilt served segments disagreeing with the manifest's row counts")
	}
}

// TestCloseFlushesPendingBatch: an appender that joined the open
// group-commit batch but has not yet flushed (it is waiting out the
// group-commit window) must not lose its rows when the store closes —
// Close flushes the pending batch durably.
func TestCloseFlushesPendingBatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := []rel.Value{rel.Int(6), rel.NullOf(rel.TInt), rel.Str("Closing Time"), rel.Float(9.5)}
	// The state an appender leaves mid group-commit window: records
	// joined to the open batch and the table's tail table ready for the
	// commit to extend, nothing flushed yet.
	st.mu.Lock()
	tail, err := st.tailTableLocked(st.man.Table("book"))
	if err != nil {
		t.Fatal(err)
	}
	st.gcCur = &commitBatch{runs: []redoRun{{table: "book", cols: tail.Columns, rows: [][]rel.Value{row}}}}
	st.mu.Unlock()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := reopened.Table("book")
	if err != nil {
		t.Fatal(err)
	}
	if bt.RowCount() != 6 {
		t.Fatalf("reopened book has %d rows, want 6 (pending batch lost)", bt.RowCount())
	}
	if got := bt.ValueAt(5, 2); !got.BitEqual(rel.Str("Closing Time")) {
		t.Fatalf("flushed row reads back %v", got)
	}
}

// TestPostCloseOperationsFence: every operation after Close reports
// ErrClosed instead of silently acting on a dead store.
func TestPostCloseOperationsFence(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
	row := []rel.Value{rel.Int(7), rel.NullOf(rel.TInt), rel.Str("x"), rel.Float(1)}
	checks := map[string]error{}
	_, e := st.Table("book")
	checks["Table"] = e
	_, e = st.Built()
	checks["Built"] = e
	checks["Append"] = st.Append("book", row)
	checks["AppendBatch"] = st.AppendBatch("book", [][]rel.Value{row})
	checks["Compact"] = st.Compact()
	for op, err := range checks {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", op, err)
		}
	}
}

// TestNegativeChunkRowsIsAnError: ChunkRows < 0 selects nothing — Save
// refuses it as an invalid chunk size and publishes nothing.
func TestNegativeChunkRowsIsAnError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{ChunkRows: -1}); err == nil || !strings.Contains(err.Error(), "chunk size -1") {
		t.Fatalf("Save with ChunkRows -1: %v, want a chunk-size error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		t.Fatal("failed Save published a manifest")
	}
}

// TestCompactKeepsSavedChunkRows: only Save reads Options.ChunkRows. A
// segment saved at 64 rows per chunk is still at 64 after compactions
// under another chunk size and under an invalid one.
func TestCompactKeepsSavedChunkRows(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, fixtureBuilt(t), Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	for round, cr := range []int{128, -1, 0} {
		st, err := Open(dir, Options{ChunkRows: cr})
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]rel.Value
		for i := 0; i < 100; i++ {
			rows = append(rows, bookRow(1000*(round+1)+i))
		}
		if err := st.AppendBatch("book", rows); err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("Compact under ChunkRows %d: %v", cr, err)
		}
		e := st.Manifest().Table("book")
		st.mu.Lock()
		d, err := st.chunkedDirLocked(e)
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if e.ChunkRows != 64 || d.ChunkRows != 64 {
			t.Fatalf("after compacting under ChunkRows %d: manifest says %d rows/chunk, directory %d, want 64", cr, e.ChunkRows, d.ChunkRows)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreTellsReadErrorsFromChecksumFailures holds Table and Compact
// to the pager's counting rule: a segment that cannot be read (the file
// ends inside its last chunk) counts one storage.read.errors and no
// storage.checksum.failures; a segment that reads but does not verify (a
// flipped payload bit) counts the reverse. The fact table is saved at 64
// rows a chunk with a partial last chunk, which Compact reads, and with
// only full chunks, which Compact copies.
func TestStoreTellsReadErrorsFromChecksumFailures(t *testing.T) {
	for _, rows := range []int{200, 256} {
		dir := t.TempDir()
		built, err := engine.Build(multiChunkDB(rows), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Save(dir, built, Options{ChunkRows: 64}); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st, err := Open(dir, Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		// The append verifies and caches the directory, so the damage
		// below is met by the chunk reads alone, and gives Compact a tail.
		if err := st.Append("fact", []rel.Value{rel.Int(int64(rows)), rel.NullOf(rel.TInt), rel.Str("x"), rel.Float(1)}); err != nil {
			t.Fatal(err)
		}
		e := st.Manifest().Table("fact")
		path := filepath.Join(dir, e.File)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		readErrs := reg.Counter("storage.read.errors")
		crcFails := reg.Counter("storage.checksum.failures")
		expect := func(label string, op func() error, wantRead, wantCRC int64) {
			t.Helper()
			r0, c0 := readErrs.Value(), crcFails.Value()
			if err := op(); err == nil {
				t.Fatalf("%d rows, %s: succeeded", rows, label)
			}
			if r, c := readErrs.Value()-r0, crcFails.Value()-c0; r != wantRead || c != wantCRC {
				t.Errorf("%d rows, %s: read.errors +%d checksum.failures +%d, want +%d and +%d", rows, label, r, c, wantRead, wantCRC)
			}
		}
		table := func() error { _, err := st.Table("fact"); return err }

		if err := os.WriteFile(path, pristine[:len(pristine)-10], 0o644); err != nil { // inside the last chunk
			t.Fatal(err)
		}
		expect("truncated Table", table, 1, 0)
		expect("truncated Compact", st.Compact, 1, 0)

		flipped := slices.Clone(pristine)
		flipped[e.Dir+envelopeSize+3] ^= 1
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		expect("flipped Table", table, 0, 1)
		expect("flipped Compact", st.Compact, 0, 1)

		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("%d rows: Compact of the restored segment: %v", rows, err)
		}
		st.Close()
	}
}
