package rel

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the layout every arena, row view and hash-table
// row in the system is made of: two tag bytes padded to a word, then
// I, F and the string header — 40 bytes on a 64-bit platform. A tag
// wider than a byte (Type was an int once: 48 bytes) costs a sixth of
// every result.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is stated for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

// TestFloatTotalOrder pins the total order over special floats: NULL
// sorts before everything, NaN sorts before every other float and
// equals itself, and -0.0 equals +0.0. Both executors and ORDER BY
// depend on this order being total — a comparator that returns "never
// equal, never ordered" for NaN would make sort results
// schedule-dependent.
func TestFloatTotalOrder(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		a, b Value
		want int
	}{
		{"nan-eq-nan", Float(nan), Float(nan), 0},
		{"nan-lt-neginf", Float(nan), Float(math.Inf(-1)), -1},
		{"nan-lt-zero", Float(nan), Float(0), -1},
		{"nan-lt-inf", Float(nan), Float(inf), -1},
		{"inf-gt-nan", Float(inf), Float(nan), 1},
		{"inf-gt-max", Float(inf), Float(math.MaxFloat64), 1},
		{"neginf-lt-min", Float(math.Inf(-1)), Float(-math.MaxFloat64), -1},
		{"neginf-eq-neginf", Float(math.Inf(-1)), Float(math.Inf(-1)), 0},
		{"inf-eq-inf", Float(inf), Float(inf), 0},
		{"negzero-eq-zero", Float(negZero), Float(0), 0},
		{"zero-eq-negzero", Float(0), Float(negZero), 0},
		{"null-lt-nan", NullOf(TFloat), Float(nan), -1},
		{"nan-gt-null", Float(nan), NullOf(TFloat), 1},
		{"int-vs-nan", Int(0), Float(nan), 1},
		{"nan-vs-int", Float(nan), Int(0), -1},
		{"int-vs-inf", Int(0), Float(inf), -1},
		{"negzero-vs-int", Float(negZero), Int(0), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%s: Compare(%v,%v) = %d, want %d", c.name, c.a, c.b, got, c.want)
		}
		if got, want := c.a.Equal(c.b), c.want == 0; got != want {
			t.Errorf("%s: Equal(%v,%v) = %v, want %v", c.name, c.a, c.b, got, want)
		}
		// Antisymmetry must hold for specials too.
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("%s: Compare(%v,%v) = %d, want %d", c.name, c.b, c.a, got, -c.want)
		}
	}
}

// TestBitEqual distinguishes what Equal deliberately conflates: -0.0 is
// not bit-equal to +0.0, while NaN is bit-equal to the same NaN
// payload. Equivalence tests compare executor outputs with BitEqual, so
// a batch path that flips a zero sign or loses a NaN would be caught.
func TestBitEqual(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		a, b Value
		want bool
	}{
		{"nan-nan", Float(nan), Float(nan), true},
		{"negzero-zero", Float(negZero), Float(0), false},
		{"negzero-negzero", Float(negZero), Float(negZero), true},
		{"inf-inf", Float(math.Inf(1)), Float(math.Inf(1)), true},
		{"inf-neginf", Float(math.Inf(1)), Float(math.Inf(-1)), false},
		{"null-null", NullOf(TFloat), NullOf(TFloat), true},
		{"null-nan", NullOf(TFloat), Float(nan), false},
		{"int-float", Int(2), Float(2), false},
		{"str-str", Str("x"), Str("x"), true},
	}
	for _, c := range cases {
		if got := c.a.BitEqual(c.b); got != c.want {
			t.Errorf("%s: BitEqual(%v,%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if got := c.b.BitEqual(c.a); got != c.want {
			t.Errorf("%s: BitEqual(%v,%v) = %v, want %v (symmetry)", c.name, c.b, c.a, got, c.want)
		}
	}
}

// TestCoerceLexicalForms pins the lexical paths documents rely on:
// whitespace-padded numerics parse, "NaN" parses to the float NaN, and
// garbage coerces to NULL.
func TestCoerceLexicalForms(t *testing.T) {
	if v := Str(" 42 ").Coerce(TInt); v.Null || v.I != 42 {
		t.Errorf("Coerce(\" 42 \", TInt) = %v", v)
	}
	if v := Str("NaN").Coerce(TFloat); v.Null || !math.IsNaN(v.F) {
		t.Errorf("Coerce(\"NaN\", TFloat) = %v", v)
	}
	if v := Str(" 2.5 ").Coerce(TFloat); v.Null || v.F != 2.5 {
		t.Errorf("Coerce(\" 2.5 \", TFloat) = %v", v)
	}
	if v := Str("-Inf").Coerce(TFloat); v.Null || !math.IsInf(v.F, -1) {
		t.Errorf("Coerce(\"-Inf\", TFloat) = %v", v)
	}
	if v := Str("not-a-number").Coerce(TFloat); !v.Null {
		t.Errorf("Coerce(\"not-a-number\", TFloat) = %v, want NULL", v)
	}
	// Any NULL coerces to NullOf(t): whatever payload it carried is gone,
	// so the result fits a column of type t.
	for _, v := range []Value{{Null: true, Typ: TString, S: "ghost"}, {Null: true, Typ: TInt, I: 4}, NullOf(TFloat)} {
		for _, typ := range []Type{TInt, TFloat, TString} {
			if c := v.Coerce(typ); !c.BitEqual(NullOf(typ)) || !c.Fits(typ) {
				t.Errorf("Coerce(%#v, %v) = %#v, want NullOf(%v)", v, typ, c, typ)
			}
		}
	}
}

// TestCoerceExact: a value converts for a column only when converting
// back gives it again, bit for bit; a NULL always converts, to NullOf.
func TestCoerceExact(t *testing.T) {
	for _, tc := range []struct {
		in   Value
		typ  Type
		want Value
		ok   bool
	}{
		{Int(7), TInt, Int(7), true},
		{Str("7"), TInt, Int(7), true},
		{Int(7), TString, Str("7"), true},
		{Int(7), TFloat, Float(7), true},
		{Float(7), TInt, Int(7), true},
		{Float(2.5), TString, Str("2.5"), true},
		{Float(math.Copysign(0, -1)), TString, Str("-0"), true},
		{Value{Null: true, Typ: TString, S: "ghost"}, TInt, NullOf(TInt), true},
		{Str("07"), TInt, Int(7), false},
		{Str(" 7"), TInt, Int(7), false},
		{Str("x"), TInt, NullOf(TInt), false},
		{Float(7.5), TInt, Int(7), false},
		{Int(1<<53 + 1), TFloat, Float(1 << 53), false},
		{Value{Typ: TInt, I: 7, S: "7"}, TInt, Value{Typ: TInt, I: 7, S: "7"}, false},
	} {
		got, ok := tc.in.CoerceExact(tc.typ)
		if ok != tc.ok || ok && !got.BitEqual(tc.want) {
			t.Errorf("CoerceExact(%#v, %v) = %#v, %v; want %#v, %v", tc.in, tc.typ, got, ok, tc.want, tc.ok)
		}
		if ok && !got.Fits(tc.typ) {
			t.Errorf("CoerceExact(%#v, %v) = %#v, which does not fit", tc.in, tc.typ, got)
		}
	}
}
