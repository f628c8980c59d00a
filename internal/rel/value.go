// Package rel is the relational storage substrate: typed values,
// columns, tables, and databases that the shredded XML data is loaded
// into. It plays the role of the storage layer of the RDBMS the paper
// runs on, with page-based size accounting so that cost models and
// storage bounds behave like a disk-resident system.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// PageSize is the accounting page size in bytes (SQL Server uses 8 KB
// pages; the cost model works in these units).
const PageSize = 8192

// Type is a column type: a one-byte tag, as it is on disk, so that it
// shares Value's first word with Null.
type Type uint8

const (
	// TInt is a 64-bit integer column.
	TInt Type = iota
	// TFloat is a 64-bit float column.
	TFloat
	// TString is a variable-width string column.
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a nullable typed value. Null and Typ pack into the first
// word, so a Value is 40 bytes on a 64-bit platform (TestValueSize);
// result arenas and index lead keys are []Value, so a field added here
// is paid for per cell everywhere.
type Value struct {
	Null bool
	Typ  Type
	I    int64
	F    float64
	S    string
}

// Int builds an integer value.
func Int(i int64) Value { return Value{Typ: TInt, I: i} }

// Float builds a float value.
func Float(f float64) Value { return Value{Typ: TFloat, F: f} }

// Str builds a string value.
func Str(s string) Value { return Value{Typ: TString, S: s} }

// NullOf builds a NULL of the given type.
func NullOf(t Type) Value { return Value{Typ: t, Null: true} }

// Compare orders two values; NULL sorts before every non-NULL, and NaN
// sorts after NULL but before every other float (see cmpFloat), so the
// order is total. Values of different numeric types compare
// numerically; comparing a string with a number compares the string
// form.
func (v Value) Compare(o Value) int {
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	if v.Typ == o.Typ {
		switch v.Typ {
		case TInt:
			return cmpInt(v.I, o.I)
		case TFloat:
			return cmpFloat(v.F, o.F)
		default:
			return strings.Compare(v.S, o.S)
		}
	}
	// Mixed numeric types compare as floats.
	if v.Typ != TString && o.Typ != TString {
		return cmpFloat(v.AsFloat(), o.AsFloat())
	}
	return strings.Compare(v.String(), o.String())
}

// Equal reports value equality (NULL equals NULL for key purposes, and
// NaN equals NaN — Compare is a total order, so Equal is a proper
// equivalence relation; before the cmpFloat fix NaN "equalled" every
// number).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// BitEqual reports strict representational equality: same nullness,
// type, and payload, with float payloads compared bit-for-bit so NaN
// equals NaN (Go's == on a struct with a NaN float field is always
// false). The differential tests use it to assert executor outputs are
// bit-identical.
func (v Value) BitEqual(o Value) bool {
	return v.Null == o.Null && v.Typ == o.Typ && v.I == o.I && v.S == o.S &&
		math.Float64bits(v.F) == math.Float64bits(o.F)
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case TInt:
		return float64(v.I)
	case TFloat:
		return v.F
	default:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
}

// Width returns the accounting width of the value in bytes: 8 for
// numerics, string length (min 1) for strings, 1 for NULL.
func (v Value) Width() int {
	if v.Null {
		return 1
	}
	switch v.Typ {
	case TString:
		if len(v.S) == 0 {
			return 1
		}
		return len(v.S)
	default:
		return 8
	}
}

// String renders the value; NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// SQLLiteral renders the value as a SQL literal.
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	if v.Typ == TString {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// Fits reports whether a column of type t holds v exactly: v is
// NullOf(t), or a non-NULL value of type t with no payload in the other
// fields. AppendRow takes exactly these values.
func (v Value) Fits(t Type) bool {
	if v.Typ != t {
		return false
	}
	i, f, s := v.I != 0, math.Float64bits(v.F) != 0, v.S != ""
	switch {
	case v.Null:
		return !i && !f && !s
	case t == TInt:
		return !f && !s
	case t == TFloat:
		return !i && !s
	}
	return t == TString && !i && !f
}

// CoerceExact converts v to a value that fits type t (see Fits) when
// that loses nothing, and reports whether it could: a NULL becomes
// NullOf(t), and a non-NULL value converts when converting the result
// back gives v again (the int 7 and the string "7" convert both ways,
// the string "07" and the float 7.5 do not convert to an int).
func (v Value) CoerceExact(t Type) (Value, bool) {
	if v.Fits(t) {
		return v, true
	}
	c := v.Coerce(t)
	return c, c.Fits(t) && (v.Null || !c.Null && c.Coerce(v.Typ).BitEqual(v))
}

// Coerce converts the value to the given column type where a sensible
// conversion exists (e.g. the paper's quoted numbers: year = "1998").
// Any NULL becomes NullOf(t): a coerced NULL carries no payload.
func (v Value) Coerce(t Type) Value {
	if v.Null {
		return NullOf(t)
	}
	if v.Typ == t {
		return v
	}
	switch t {
	case TInt:
		switch v.Typ {
		case TFloat:
			return Int(int64(v.F))
		case TString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
				return Int(i)
			}
		}
	case TFloat:
		switch v.Typ {
		case TInt:
			return Float(float64(v.I))
		case TString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return Float(f)
			}
		}
	case TString:
		return Str(v.String())
	}
	return NullOf(t)
}

// CompareInts and CompareFloats expose the scalar orders Compare is
// built on, so the engine's columnar filter kernels stay bit-consistent
// with Value comparisons (including the NaN total order) without
// boxing a Value per cell.
func CompareInts(a, b int64) int { return cmpInt(a, b) }

// CompareFloats orders float64s with the same total order cmpFloat
// gives Compare: NaN before every other float, NaN == NaN, -0.0 == 0.0.
func CompareFloats(a, b float64) int { return cmpFloat(a, b) }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat is a total order over float64: NaN sorts before every other
// float (after NULL, which Compare handles first) and equals itself.
// The naive <,> comparison returned 0 for any comparison involving NaN,
// which made NaN "equal" every number and handed sort.SliceStable an
// inconsistent less-func. -0.0 and +0.0 compare equal, like SQL.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
