package rel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{NullOf(TInt), Int(0), -1},
		{Int(0), NullOf(TInt), 1},
		{NullOf(TInt), NullOf(TString), 0},
		{Int(2), Float(2.0), 0},
		{Int(2), Float(2.5), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareProperties(t *testing.T) {
	mk := func(kind uint8, i int64, f float64, s string) Value {
		switch kind % 4 {
		case 0:
			return Int(i)
		case 1:
			return Float(f)
		case 2:
			return Str(s)
		default:
			return NullOf(TInt)
		}
	}
	antisym := func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a, b := mk(k1, i1, f1, s1), mk(k2, i2, f2, s2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	reflexive := func(k uint8, i int64, f float64, s string) bool {
		v := mk(k, i, f, s)
		return v.Compare(v) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
}

func TestValueCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		typ  Type
		want Value
	}{
		{Str("1998"), TInt, Int(1998)},
		{Str("7.5"), TFloat, Float(7.5)},
		{Int(42), TString, Str("42")},
		{Int(42), TFloat, Float(42)},
		{Float(3.9), TInt, Int(3)},
		{Str("banana"), TInt, NullOf(TInt)},
		{NullOf(TString), TInt, NullOf(TInt)},
		// NULL propagates to every target type, never resurrecting a value.
		{NullOf(TInt), TFloat, NullOf(TFloat)},
		{NullOf(TFloat), TString, NullOf(TString)},
		{NullOf(TInt), TInt, NullOf(TInt)},
		// Empty and whitespace-only strings are not numbers.
		{Str(""), TInt, NullOf(TInt)},
		{Str(""), TFloat, NullOf(TFloat)},
		{Str("   "), TInt, NullOf(TInt)},
		// Surrounding whitespace is trimmed before numeric parsing.
		{Str("  7 "), TInt, Int(7)},
		{Str("\t-2.25\n"), TFloat, Float(-2.25)},
		// Exponent forms parse as floats but not as ints.
		{Str("1e3"), TInt, NullOf(TInt)},
		{Str("1e3"), TFloat, Float(1000)},
		// Same-type coercion is the identity.
		{Str("x"), TString, Str("x")},
		{Int(-9), TInt, Int(-9)},
		// Float-to-int truncates toward zero, including negatives.
		{Float(-3.9), TInt, Int(-3)},
		// Cross-type via string forms.
		{Float(2.5), TString, Str("2.5")},
		{Str("-4"), TFloat, Float(-4)},
	}
	for _, c := range cases {
		got := c.in.Coerce(c.typ)
		if got.Null != c.want.Null || (!got.Null && got.Compare(c.want) != 0) || got.Typ != c.want.Typ {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.typ, got, c.want)
		}
	}
}

func TestValueSQLLiteral(t *testing.T) {
	if got := Str("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Int(5).SQLLiteral(); got != "5" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NullOf(TInt).SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestValueWidth(t *testing.T) {
	if Int(5).Width() != 8 || Float(1).Width() != 8 {
		t.Error("numeric width should be 8")
	}
	if Str("hello").Width() != 5 {
		t.Error("string width should be len")
	}
	if NullOf(TString).Width() != 1 || Str("").Width() != 1 {
		t.Error("null/empty width should be 1")
	}
}

func newTestTable() *Table {
	return NewTable("inproc", []Column{
		{Name: IDColumn, Typ: TInt},
		{Name: PIDColumn, Typ: TInt},
		{Name: "title", Typ: TString},
		{Name: "year", Typ: TInt},
	})
}

func TestTableBasics(t *testing.T) {
	tb := newTestTable()
	if tb.ColIndex("year") != 3 || tb.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
	tb.AppendRow([]Value{Int(1), Int(1), Str("a paper"), Int(2000)})
	tb.AppendRow([]Value{Int(2), Int(1), Str("another"), Int(2001)})
	if tb.RowCount() != 2 {
		t.Errorf("RowCount = %d", tb.RowCount())
	}
	if tb.Bytes() <= 0 || tb.Pages() < 1 {
		t.Error("size accounting broken")
	}
	if !tb.HasColumn("title") || tb.Column("title").Typ != TString {
		t.Error("Column lookup broken")
	}
}

func TestTableAppendRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for wrong row width")
		}
	}()
	newTestTable().AppendRow([]Value{Int(1)})
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	tb := newTestTable()
	db.Add(tb)
	if db.Table("inproc") != tb || db.Table("nope") != nil {
		t.Error("Table lookup broken")
	}
	tb2 := NewTable("author", []Column{{Name: IDColumn, Typ: TInt}, {Name: PIDColumn, Typ: TInt}})
	db.Add(tb2)
	tables := db.Tables()
	if len(tables) != 2 || tables[0].Name != "inproc" || tables[1].Name != "author" {
		t.Errorf("Tables order = %v", tables)
	}
	tb.AppendRow([]Value{Int(1), Int(1), Str("x"), Int(1)})
	if db.Bytes() != tb.Bytes()+tb2.Bytes() {
		t.Error("Bytes aggregation broken")
	}
	if db.Pages() < 2 {
		t.Error("Pages should count both tables")
	}
}

func TestDatabaseDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for duplicate table")
		}
	}()
	db := NewDatabase()
	db.Add(newTestTable())
	db.Add(newTestTable())
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for duplicate column")
		}
	}()
	NewTable("t", []Column{{Name: "a", Typ: TInt}, {Name: "a", Typ: TInt}})
}

// TestRowBytesMatchesAppendRow pins the shared accounting contract
// consumers that predict a table's bookkeeping without appending rely
// on (storage's paged shells): one AppendRow moves Bytes() by exactly
// RowBytes(row) and RowCount() by exactly one, across every value
// shape including NULLs, the empty string and negative zero.
func TestRowBytesMatchesAppendRow(t *testing.T) {
	tb := NewTable("acct", []Column{
		{Name: IDColumn, Typ: TInt},
		{Name: "tag", Typ: TString, Nullable: true},
		{Name: "val", Typ: TFloat, Nullable: true},
	})
	rows := [][]Value{
		{Int(1), Str("short"), Float(1.5)},
		{Int(2), NullOf(TString), NullOf(TFloat)},
		{Int(3), Str("a considerably longer string value"), Float(0)},
		{Int(4), Str("1998"), Float(39.95)},
		{Int(5), Str(""), Float(-0.0)},
	}
	for i, row := range rows {
		rowsBefore, bytesBefore := tb.RowCount(), tb.Bytes()
		want := RowBytes(row)
		tb.AppendRow(row)
		if got := tb.Bytes() - bytesBefore; got != want {
			t.Errorf("row %d: AppendRow moved Bytes by %d, RowBytes predicts %d", i, got, want)
		}
		if got := tb.RowCount() - rowsBefore; got != 1 {
			t.Errorf("row %d: AppendRow moved RowCount by %d, want 1", i, got)
		}
	}
	restored, err := TableFromSnapshot(tb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Bytes() != tb.Bytes() {
		t.Errorf("TableFromSnapshot accounts %d bytes, AppendRow accumulated %d", restored.Bytes(), tb.Bytes())
	}
}

// TestSnapshotBytesMatchAppendRow holds TableFromSnapshot's column-wise
// byte accounting to AppendRow's running total on whole tables: NULLs,
// empty strings, and a string column that never interns anything. (The
// same accounting over the chunks a segment stores is storage's
// TestEncodedChunkBytesMatchRowBytes.)
func TestSnapshotBytesMatchAppendRow(t *testing.T) {
	words := []string{"", "a", "bb", "a considerably longer string value", "1998"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable("acct", []Column{
			{Name: IDColumn, Typ: TInt},
			{Name: "tag", Typ: TString, Nullable: true},
			{Name: "val", Typ: TFloat, Nullable: true},
			{Name: "n", Typ: TInt, Nullable: true},
			{Name: "odd", Typ: TString, Nullable: true}, // only NULLs
		})
		nrows := 130 + rng.Intn(120)
		for r := 0; r < nrows; r++ {
			row := []Value{Int(int64(r)), Str(words[rng.Intn(len(words))]), Float(rng.NormFloat64()),
				Int(int64(rng.Intn(50))), NullOf(TString)}
			for c := 1; c < 4; c++ {
				if rng.Intn(10) == 0 {
					row[c] = NullOf(tb.Columns[c].Typ)
				}
			}
			tb.AppendRow(row)
		}
		whole, err := TableFromSnapshot(tb.Snapshot())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if whole.Bytes() != tb.Bytes() {
			t.Fatalf("seed %d: TableFromSnapshot accounts %d bytes, AppendRow accumulated %d", seed, whole.Bytes(), tb.Bytes())
		}
	}
}
