package stats_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/rel"
	"repro/internal/shred"
	"repro/internal/stats"
)

// sameProvider checks two providers table by table, each column's
// statistics bit for bit (bitImage).
func sameProvider(t *testing.T, where string, got, want stats.MapProvider) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tables, want %d", where, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.Name != w.Name || g.Rows != w.Rows ||
			math.Float64bits(g.RowBytes) != math.Float64bits(w.RowBytes) || len(g.Cols) != len(w.Cols) {
			t.Fatalf("%s.%s: table statistics differ: %+v vs %+v", where, name, g, w)
		}
		for col, wc := range w.Cols {
			gc, ok := g.Cols[col]
			if !ok {
				t.Fatalf("%s.%s: column %s missing", where, name, col)
			}
			sameColumnStats(t, where+"."+name+"."+col, gc, wc)
		}
	}
}

// TestFromDatabaseSameAtEveryWorkerCount: over DBLP and Movie under
// hybrid inlining, FromDatabase gives the same provider, bit for bit,
// at GOMAXPROCS 1, 2, 3 and 8, and at 1 it is the reference collector's.
func TestFromDatabaseSameAtEveryWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range oracleCorpora() {
		m, err := shred.Compile(c.tree())
		if err != nil {
			t.Fatal(err)
		}
		db, err := shred.Shred(m, c.doc)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(1)
		want := stats.FromDatabase(db)
		ref := make(stats.MapProvider)
		for _, tb := range db.Tables() {
			ref[tb.Name] = refFromTable(tb)
		}
		sameProvider(t, c.name+"@1", want, ref)
		for _, k := range []int{2, 3, 8} {
			runtime.GOMAXPROCS(k)
			sameProvider(t, c.name, stats.FromDatabase(db), want)
		}
	}
}

// TestFromDatabaseRaisesShellPanicOnCaller: FromTable's panic over a
// virtual shell reaches FromDatabase's caller from whichever worker
// collected the shell.
func TestFromDatabaseRaisesShellPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	db := rel.NewDatabase()
	for _, name := range []string{"a", "b", "c"} {
		tb := rel.NewTable(name, []rel.Column{{Name: "id", Typ: rel.TInt}})
		tb.AppendRow([]rel.Value{rel.Int(1)})
		db.Add(tb)
	}
	db.Add(rel.NewVirtualTable("shell", "", []rel.Column{{Name: "id", Typ: rel.TInt}}, 3, 24,
		func() (*rel.Table, error) { return nil, nil }))
	defer func() {
		if recover() == nil {
			t.Fatal("FromDatabase over a virtual shell did not panic")
		}
	}()
	stats.FromDatabase(db)
}

// TestFromTablesFailsAtLowestFailingTable: when tables 1 and 3 cannot
// be supplied, FromTables returns table 1's error at every GOMAXPROCS.
func TestFromTablesFailsAtLowestFailingTable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tb := rel.NewTable("t", []rel.Column{{Name: "id", Typ: rel.TInt}})
	errs := []error{nil, errors.New("table 1"), nil, errors.New("table 3"), nil}
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		p, err := stats.FromTables(len(errs), func(i int) (*rel.Table, error) {
			if errs[i] != nil {
				return nil, errs[i]
			}
			return tb, nil
		})
		if err != errs[1] || p != nil {
			t.Fatalf("GOMAXPROCS %d: FromTables = %v, %v; want table 1's error", k, p, err)
		}
	}
}
