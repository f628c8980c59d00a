package rel

import (
	"fmt"
	"math"
	"math/rand"
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
		if tb.RowCount() != 1 {
			t.Errorf("%s: the refused row changed the table: %d rows", tc.name, tb.RowCount())
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

// lenCheck reports whether a column's vector and null bitmap both
// hold n rows.
func (cv *colVec) lenCheck(n int) error {
	var dn int
	switch cv.typ {
	case TInt:
		dn = len(cv.ints)
	case TFloat:
		dn = len(cv.floats)
	default:
		dn = len(cv.codes)
	}
	if dn != n || cv.nulls.Len() != n {
		return fmt.Errorf("rel: column vector length %d / bitmap %d, want %d", dn, cv.nulls.Len(), n)
	}
	return nil
}
