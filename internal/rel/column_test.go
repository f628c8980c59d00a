package rel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestBitmapRoundTrip: a bitmap reproduces exactly the bit sequence
// appended to it, across word boundaries, and its set count matches.
func TestBitmapRoundTrip(t *testing.T) {
	prop := func(bits []bool) bool {
		var b Bitmap
		want := 0
		for _, v := range bits {
			b.Append(v)
			if v {
				want++
			}
		}
		if b.Len() != len(bits) || b.SetCount() != want || b.Any() != (want > 0) {
			return false
		}
		for i, v := range bits {
			if b.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Deterministic word-boundary case: 130 bits straddling three words.
	var b Bitmap
	for i := 0; i < 130; i++ {
		b.Append(i%3 == 0)
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d = %v", i, b.Get(i))
		}
	}
}

// TestDictIdentity: decode(encode(s)) == s for any string stream, codes
// are stable as the dictionary grows, and Code never interns.
func TestDictIdentity(t *testing.T) {
	prop := func(strs []string) bool {
		var d Dict
		codes := make([]uint32, len(strs))
		for i, s := range strs {
			codes[i] = d.Intern(s)
		}
		for i, s := range strs {
			if d.Str(codes[i]) != s {
				return false
			}
			if c, ok := d.Code(s); !ok || c != codes[i] {
				return false
			}
		}
		if _, ok := d.Code("\x00never-interned\x00"); ok {
			return false
		}
		return d.Len() <= len(strs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDictCodeAgreesWithIntern: Code has one rule — scan strs — so it
// must agree with the writer in every state a dictionary can be in:
// fresh (index built as it grew), restored from a snapshot (no index),
// and restored after its first Intern (index built from the entries).
func TestDictCodeAgreesWithIntern(t *testing.T) {
	words := []string{"a", "bb", "", "a", "ccc", "bb"}
	fresh := &Dict{}
	for _, w := range words {
		fresh.Intern(w)
	}
	restored := &Dict{strs: append([]string(nil), fresh.Strs()...)}
	interned := &Dict{strs: append([]string(nil), fresh.Strs()...)}
	interned.Intern("dddd")
	for name, d := range map[string]*Dict{"fresh": fresh, "restored": restored, "restored+Intern": interned} {
		if _, ok := d.Code("never"); ok {
			t.Fatalf("%s: Code found a string nobody interned", name)
		}
		n := d.Len()
		for _, w := range d.Strs() {
			// Code first: on the restored dictionary this Intern is the
			// one that builds the index.
			c, ok := d.Code(w)
			if ic := d.Intern(w); !ok || c != ic || d.Len() != n {
				t.Fatalf("%s: Code(%q) = %d, %v; Intern = %d (%d -> %d entries)", name, w, c, ok, ic, n, d.Len())
			}
		}
	}
}

// randomValue draws a value of column type ct, sometimes NULL and for
// floats sometimes NaN, an infinity or -0.0, the payloads whose bits a
// comparison with == would not pin.
func randomValue(r *rand.Rand, ct Type) Value {
	if r.Intn(10) == 0 {
		return NullOf(ct)
	}
	switch ct {
	case TInt:
		return Int(r.Int63n(100) - 50)
	case TFloat:
		switch r.Intn(8) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Inf(1))
		case 2:
			return Float(math.Copysign(0, -1))
		default:
			return Float(float64(r.Intn(20)) / 4)
		}
	default:
		return Str(fmt.Sprintf("s-%d", r.Intn(12)))
	}
}

// TestTableBitFaithful: whatever mix of values a table ingests — NaN,
// -0.0, both infinities, NULLs — ValueAt, ReadRowInto and Rows return
// values bit-identical to what AppendRow stored, and the typed accessors
// serve every column of its own type.
func TestTableBitFaithful(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cols := []Column{
		{Name: "ID", Typ: TInt},
		{Name: "f", Typ: TFloat, Nullable: true},
		{Name: "s", Typ: TString, Nullable: true},
	}
	tb := NewTable("bitfaithful", cols)
	var want [][]Value
	for i := 0; i < 500; i++ {
		row := []Value{Int(int64(i)), randomValue(r, TFloat), randomValue(r, TString)}
		want = append(want, append([]Value(nil), row...))
		tb.AppendRow(row)
		// The appended slice may be reused by the caller.
		row[0] = Str("clobbered")
	}
	rows := tb.Rows()
	scratch := make([]Value, len(cols))
	for i, wr := range want {
		tb.ReadRowInto(scratch, i)
		for j := range wr {
			if !tb.ValueAt(i, j).BitEqual(wr[j]) {
				t.Fatalf("ValueAt(%d,%d) = %v, want %v", i, j, tb.ValueAt(i, j), wr[j])
			}
			if !rows[i][j].BitEqual(wr[j]) {
				t.Fatalf("Rows()[%d][%d] = %v, want %v", i, j, rows[i][j], wr[j])
			}
			if !scratch[j].BitEqual(wr[j]) {
				t.Fatalf("ReadRowInto(%d)[%d] = %v, want %v", i, j, scratch[j], wr[j])
			}
			if tb.IsNullAt(i, j) != wr[j].Null {
				t.Fatalf("IsNullAt(%d,%d) = %v, want %v", i, j, tb.IsNullAt(i, j), wr[j].Null)
			}
		}
	}
	if _, _, ok := tb.IntCol(0); !ok {
		t.Error("IntCol(0) refused an INT column")
	}
	if _, _, ok := tb.FloatCol(1); !ok {
		t.Error("FloatCol(1) refused a FLOAT column")
	}
	if _, _, _, ok := tb.StrCol(2); !ok {
		t.Error("StrCol(2) refused a VARCHAR column")
	}
	if _, _, ok := tb.IntCol(1); ok {
		t.Error("IntCol(1) served a TFloat column")
	}
	for ci := range cols {
		if err := tb.cols[ci].lenCheck(tb.RowCount()); err != nil {
			t.Error(err)
		}
	}
}

// TestAppendRowRefusesValuesThatDoNotFit: AppendRow panics on every
// value its column does not admit — another type, a NULL of another
// type, a NULL or a number carrying a stray payload, a NULL in a NOT
// NULL column — and the table is left as it was, so a half-appended row
// is never visible.
func TestAppendRowRefusesValuesThatDoNotFit(t *testing.T) {
	cols := []Column{
		{Name: "ID", Typ: TInt},
		{Name: "f", Typ: TFloat, Nullable: true},
		{Name: "s", Typ: TString, Nullable: true},
	}
	for _, tc := range []struct {
		name string
		row  []Value
	}{
		{"string in an INT column", []Value{Str("7"), Float(1), Str("a")}},
		{"int in a FLOAT column", []Value{Int(1), Int(3), Str("a")}},
		{"float in a VARCHAR column", []Value{Int(1), Float(1), Float(1.5)}},
		{"NULL of another type", []Value{Int(1), NullOf(TInt), Str("a")}},
		{"NULL carrying a payload", []Value{Int(1), Float(1), {Null: true, Typ: TString, S: "ghost"}}},
		{"number carrying a string", []Value{Int(1), {Typ: TFloat, F: 2, S: "2"}, Str("a")}},
		{"NULL in a NOT NULL column", []Value{NullOf(TInt), Float(1), Str("a")}},
	} {
		tb := NewTable("strict", cols)
		tb.AppendRow([]Value{Int(0), Float(0.5), Str("z")})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AppendRow(%v) did not panic", tc.name, tc.row)
				}
			}()
			tb.AppendRow(tc.row)
		}()
		if tb.RowCount() != 1 || tb.Generation() != 1 {
			t.Errorf("%s: the refused row changed the table: %d rows, generation %d", tc.name, tb.RowCount(), tb.Generation())
		}
		for ci := range cols {
			if err := tb.cols[ci].lenCheck(1); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TestTableBytesAccounting: the columnar table accounts exactly what
// the row store accounted — sum of Value.Width() over all cells plus 8
// bytes per row — so mapping-enumeration size estimates are unchanged.
func TestTableBytesAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cols := []Column{
		{Name: "ID", Typ: TInt},
		{Name: "f", Typ: TFloat, Nullable: true},
		{Name: "s", Typ: TString, Nullable: true},
	}
	tb := NewTable("acct", cols)
	var want int64
	for i := 0; i < 300; i++ {
		row := []Value{Int(int64(i)), randomValue(r, TFloat), randomValue(r, TString)}
		for _, v := range row {
			want += int64(v.Width())
		}
		want += 8
		tb.AppendRow(row)
		if tb.Bytes() != want {
			t.Fatalf("after %d rows: Bytes() = %d, want %d", i+1, tb.Bytes(), want)
		}
	}
	if tb.Pages() != (want+PageSize-1)/PageSize {
		t.Fatalf("Pages() = %d, want %d", tb.Pages(), (want+PageSize-1)/PageSize)
	}
}

// TestSortByIDPermutes: sorting by ID moves whole rows — special float
// payloads, NULL bits and dictionary codes travel with their row — and
// bumps the generation.
func TestSortByIDPermutes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	cols := []Column{
		{Name: "ID", Typ: TInt},
		{Name: "f", Typ: TFloat, Nullable: true},
		{Name: "s", Typ: TString, Nullable: true},
	}
	tb := NewTable("sorted", cols)
	byID := make(map[int64][]Value)
	perm := rand.New(rand.NewSource(7)).Perm(200)
	for _, id := range perm {
		row := []Value{Int(int64(id)), randomValue(r, TFloat), randomValue(r, TString)}
		byID[int64(id)] = append([]Value(nil), row...)
		tb.AppendRow(row)
	}
	genBefore := tb.Generation()
	tb.SortByID()
	if tb.Generation() == genBefore {
		t.Fatal("SortByID did not bump the generation")
	}
	rows := tb.Rows()
	for i, row := range rows {
		if row[0].I != int64(i) {
			t.Fatalf("row %d has ID %d after sort", i, row[0].I)
		}
		for j, v := range byID[row[0].I] {
			if !row[j].BitEqual(v) {
				t.Fatalf("row ID %d col %d = %v, want %v", row[0].I, j, row[j], v)
			}
		}
	}
}

// TestRowsMaterializesPerCall: Rows() keeps nothing on the table — every
// call hands out fresh rows the caller owns, and rows taken before a
// mutation still describe the table as it was.
func TestRowsMaterializesPerCall(t *testing.T) {
	tb := NewTable("gen", []Column{{Name: "ID", Typ: TInt}})
	tb.AppendRow([]Value{Int(1)})
	r1 := tb.Rows()
	if r2 := tb.Rows(); &r1[0][0] == &r2[0][0] {
		t.Fatal("two Rows() calls share one backing array")
	}
	tb.AppendRow([]Value{Int(2)})
	r3 := tb.Rows()
	if len(r1) != 1 || r1[0][0].I != 1 {
		t.Fatalf("rows taken before the append changed: %v", r1)
	}
	if len(r3) != 2 {
		t.Fatalf("after the append Rows() has %d rows, want 2", len(r3))
	}
}

// comparatorTable holds one column of every storage shape RowComparator
// reads: typed vectors with and without NULLs (the floats with NaN,
// -0.0 and both infinities). Values repeat so ties are common, and ID
// repeats and goes NULL so a stable sort by it has something to keep in
// place.
func comparatorTable() *Table {
	tb := NewTable("cmp", []Column{
		{Name: "ID", Typ: TInt, Nullable: true},
		{Name: "i", Typ: TInt},
		{Name: "f", Typ: TFloat, Nullable: true},
		{Name: "s", Typ: TString, Nullable: true},
		{Name: "sfull", Typ: TString},
	})
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25, 1.5}
	r := rand.New(rand.NewSource(97))
	for n := 0; n < 120; n++ {
		id := Int(int64(r.Intn(30)))
		if n%9 == 4 {
			id = NullOf(TInt)
		}
		f := Float(floats[r.Intn(len(floats))])
		if n%7 == 3 {
			f = NullOf(TFloat)
		}
		s := Str(fmt.Sprintf("s-%d", r.Intn(9)))
		if n%5 == 2 {
			s = NullOf(TString)
		}
		tb.AppendRow([]Value{id, Int(int64(r.Intn(11) - 5)), f, s, Str(fmt.Sprintf("w%d", r.Intn(7)))})
	}
	return tb
}

// TestRowComparatorMatchesValueCompare: over every column of
// comparatorTable and every pair of rows, the comparator returns what
// Value.Compare returns for the two cells.
func TestRowComparatorMatchesValueCompare(t *testing.T) {
	tb := comparatorTable()
	for ci, c := range tb.Columns {
		cmp := tb.RowComparator(ci)
		for a := 0; a < tb.RowCount(); a++ {
			for b := 0; b < tb.RowCount(); b++ {
				va, vb := tb.ValueAt(a, ci), tb.ValueAt(b, ci)
				if got, want := cmp(a, b), va.Compare(vb); got != want {
					t.Fatalf("column %s rows %d, %d: comparator %d, (%v).Compare(%v) = %d", c.Name, a, b, got, va, vb, want)
				}
			}
		}
	}
}

// TestSortByIDMatchesRowSort: SortByID lands every row where a stable
// sort of the materialized rows by Value.Compare on ID puts it — the
// algorithm it replaced — repeats and NULLs keep their relative order.
func TestSortByIDMatchesRowSort(t *testing.T) {
	short := NewTable("short", []Column{{Name: "ID", Typ: TInt, Nullable: true}, {Name: "n", Typ: TInt}})
	for n, id := range []Value{Int(5), Int(4), Int(3), NullOf(TInt), Int(3), Int(5), NullOf(TInt), Int(1)} {
		short.AppendRow([]Value{id, Int(int64(n))})
	}
	for _, tb := range []*Table{comparatorTable(), short} {
		want := tb.Rows()
		sort.SliceStable(want, func(i, j int) bool { return want[i][0].Compare(want[j][0]) < 0 })
		tb.SortByID()
		got := tb.Rows()
		for i := range want {
			for j := range want[i] {
				if !got[i][j].BitEqual(want[i][j]) {
					t.Fatalf("%s row %d col %d = %v after SortByID, the row sort puts %v there", tb.Name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
