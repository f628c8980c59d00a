package rel

import (
	"math"
	"math/rand"
	"testing"
)

// snapshotTable builds a table exercising every storage shape: all
// three types, NULLs, duplicate strings, the empty string, and
// non-finite and negative-zero floats.
func snapshotTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("snap", []Column{
		{Name: IDColumn, Typ: TInt},
		{Name: PIDColumn, Typ: TInt, Nullable: true},
		{Name: "title", Typ: TString, Nullable: true, LeafID: 7},
		{Name: "score", Typ: TFloat, Nullable: true, LeafID: 9, Occurrence: 1},
	})
	rows := [][]Value{
		{Int(1), NullOf(TInt), Str("alpha"), Float(1.5)},
		{Int(2), Int(1), Str("beta"), Float(math.NaN())},
		{Int(3), Int(1), Str("alpha"), Float(math.Copysign(0, -1))},
		{Int(4), Int(2), NullOf(TString), Float(math.Inf(1))},
		{Int(5), Int(2), Str(""), NullOf(TFloat)},
		{Int(6), Int(1), Str("42"), Float(4.25)},
		{Int(7), Int(3), Str("gamma"), NullOf(TFloat)},
	}
	for _, r := range rows {
		tbl.AppendRow(r)
	}
	return tbl
}

func tablesBitEqual(t *testing.T, a, b *Table) {
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
	if a.Bytes() != b.Bytes() {
		t.Fatalf("bytes %d vs %d", a.Bytes(), b.Bytes())
	}
	for r := 0; r < a.RowCount(); r++ {
		for c := range a.Columns {
			av, bv := a.ValueAt(r, c), b.ValueAt(r, c)
			if !av.BitEqual(bv) {
				t.Fatalf("value (%d,%d): %v vs %v", r, c, av, bv)
			}
			if a.IsNullAt(r, c) != b.IsNullAt(r, c) {
				t.Fatalf("nullness (%d,%d) differs", r, c)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tbl := snapshotTable(t)
	tbl.Parent = "root"
	got, err := TableFromSnapshot(tbl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, tbl, got)
	// The restored table must keep working as a live table: typed
	// accessors serve its columns, appends extend it.
	if _, _, ok := got.IntCol(0); !ok {
		t.Error("restored INT column not servable by IntCol")
	}
	if _, _, _, ok := got.StrCol(2); !ok {
		t.Error("restored VARCHAR column not servable by StrCol")
	}
	rows := got.RowCount()
	got.AppendRow([]Value{Int(8), Int(1), Str("delta"), Float(2)})
	if got.RowCount() != rows+1 || got.ValueAt(rows, 2).S != "delta" {
		t.Errorf("append after restore: %d rows, want %d", got.RowCount(), rows+1)
	}
}

func TestSnapshotRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := []string{"", "a", "bb", "ccc", "It's", "NaN", "1998", "  42 "}
	for trial := 0; trial < 40; trial++ {
		cols := []Column{{Name: IDColumn, Typ: TInt, Nullable: true}}
		ncols := 1 + rng.Intn(4)
		for i := 0; i < ncols; i++ {
			cols = append(cols, Column{
				Name: string(rune('a' + i)), Typ: Type(rng.Intn(3)), Nullable: true,
			})
		}
		tbl := NewTable("r", cols)
		nrows := rng.Intn(70)
		row := make([]Value, len(cols))
		for r := 0; r < nrows; r++ {
			for c, col := range cols {
				switch {
				case rng.Intn(8) == 0:
					row[c] = NullOf(col.Typ)
				default:
					switch col.Typ {
					case TInt:
						row[c] = Int(int64(rng.Intn(100) - 50))
					case TFloat:
						fs := []float64{0, math.Copysign(0, -1), 1.25, math.NaN(), math.Inf(-1), rng.NormFloat64()}
						row[c] = Float(fs[rng.Intn(len(fs))])
					default:
						row[c] = Str(words[rng.Intn(len(words))])
					}
				}
			}
			tbl.AppendRow(row)
		}
		got, err := TableFromSnapshot(tbl.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tablesBitEqual(t, tbl, got)
	}
}

// TestTableFromSnapshotRejects drives the validator through malformed
// snapshots: every corruption must come back as an error, not a panic
// and not a quietly wrong table.
func TestTableFromSnapshotRejects(t *testing.T) {
	fresh := func() *TableSnapshot { return snapshotTable(t).Snapshot() }
	cases := []struct {
		name   string
		mutate func(*TableSnapshot)
	}{
		{"nil snapshot", nil},
		{"empty name", func(s *TableSnapshot) { s.Name = "" }},
		{"negative rows", func(s *TableSnapshot) { s.RowCount = -1 }},
		{"duplicate column", func(s *TableSnapshot) { s.Columns[1].Col.Name = s.Columns[0].Col.Name }},
		{"empty column name", func(s *TableSnapshot) { s.Columns[2].Col.Name = "" }},
		{"bad type", func(s *TableSnapshot) { s.Columns[0].Col.Typ = Type(9) }},
		{"short int vector", func(s *TableSnapshot) { s.Columns[0].Ints = s.Columns[0].Ints[:2] }},
		{"short bitmap", func(s *TableSnapshot) { s.Columns[0].NullWords = nil }},
		{"tail bits set", func(s *TableSnapshot) { s.Columns[0].NullWords[0] |= 1 << 63 }},
		{"cross-typed payload", func(s *TableSnapshot) { s.Columns[0].Floats = make([]float64, s.RowCount) }},
		{"code out of dict", func(s *TableSnapshot) { s.Columns[2].Codes[0] = 99 }},
		{"dict order broken", func(s *TableSnapshot) {
			c := &s.Columns[2]
			c.Codes[0], c.Codes[1] = c.Codes[1], c.Codes[0]
		}},
		{"unused dict entry", func(s *TableSnapshot) { s.Columns[2].Dict = append(s.Columns[2].Dict, "orphan") }},
		{"duplicate dict entry", func(s *TableSnapshot) {
			c := &s.Columns[2]
			c.Dict[1] = c.Dict[0]
		}},
		{"null row with payload", func(s *TableSnapshot) { s.Columns[1].Ints[0] = 5 }},
		{"null float with payload", func(s *TableSnapshot) { s.Columns[3].Floats[4] = math.Copysign(0, -1) }},
		{"null string with code", func(s *TableSnapshot) { s.Columns[2].Codes[3] = 1 }},
		{"null in a NOT NULL column", func(s *TableSnapshot) { s.Columns[1].Col.Nullable = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *TableSnapshot
			if tc.mutate != nil {
				s = fresh()
				tc.mutate(s)
			}
			if tbl, err := TableFromSnapshot(s); err == nil {
				t.Fatalf("corrupted snapshot accepted (table %v)", tbl.Name)
			}
		})
	}
}

// TestRestoredDictLooksUpAndInterns: a dictionary restored from a
// snapshot carries no string -> code index. Code must still resolve
// every entry (and nothing else) by scanning, and the first Intern must
// index the restored entries before it adds anything, so a string that
// was already there keeps its code.
func TestRestoredDictLooksUpAndInterns(t *testing.T) {
	tb := NewTable("d", []Column{{Name: "s", Typ: TString}})
	for _, w := range []string{"a", "b", "a", "c"} {
		tb.AppendRow([]Value{Str(w)})
	}
	got, err := TableFromSnapshot(tb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	_, dict, _, ok := got.StrCol(0)
	if !ok {
		t.Fatal("restored string column not servable by StrCol")
	}
	for want, w := range []string{"a", "b", "c"} {
		if c, ok := dict.Code(w); !ok || int(c) != want {
			t.Fatalf("Code(%q) = %d, %v on a restored dictionary; want %d", w, c, ok, want)
		}
	}
	if c, ok := dict.Code("zz"); ok {
		t.Fatalf("Code(\"zz\") = %d on a dictionary that never saw it", c)
	}
	got.AppendRow([]Value{Str("b")})
	got.AppendRow([]Value{Str("d")})
	codes, dict, _, _ := got.StrCol(0)
	if codes[4] != 1 || codes[5] != 3 || dict.Len() != 4 {
		t.Fatalf("after appending \"b\" and \"d\": codes %v, %d entries; want ... 1 3 and 4 entries", codes, dict.Len())
	}
	if c, ok := dict.Code("d"); !ok || c != 3 {
		t.Fatalf("Code(\"d\") = %d, %v after interning it", c, ok)
	}
}
