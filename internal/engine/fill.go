package engine

import "repro/internal/rel"

// This file is the batch executor's one way of reading stored cells. The
// pipeline carries row ids, not values, and every table in a branch's
// scope is a rel.Table — a scan fragment, a seek driver's table, a hash
// or INL join's inner table (a partition's base table among them). A
// colFill reads one column of one such table straight from its typed
// vector: the sink's fills copy a projected column into the result arena
// for a whole list of row ids at once — the only rel.Value an execution
// writes — and a join reads its outer key through one. Values are
// bit-identical to Table.ReadRowInto's.

// fillKind selects a colFill's source representation.
type fillKind uint8

const (
	fillInts   fillKind = iota // clean TInt vector
	fillFloats                 // clean TFloat vector
	fillStrs                   // clean dictionary-coded TString vector
	fillCells                  // a column holding exception values: per-cell ValueAt
)

// colFill reads column col of a table source; fill lands it in slot
// slot of every row of a result arena.
type colFill struct {
	kind fillKind
	slot int
	col  int

	ints   []int64
	floats []float64
	codes  []uint32
	strs   []string
	// nulls is nil when the vector has no NULL, so the common all-valid
	// column skips the per-row bitmap probe.
	nulls *rel.Bitmap

	table *rel.Table // fillCells
}

// newColFill compiles the reader of column col of t, landing in slot.
// t must be resident and must not change while the fill is in use: a
// hydrated table of the Built, or a scan fragment until its release.
func newColFill(t *rel.Table, col, slot int) colFill {
	f := colFill{kind: fillCells, slot: slot, col: col, table: t}
	var nulls *rel.Bitmap
	if ints, nb, ok := t.IntCol(col); ok {
		f.kind, f.ints, nulls = fillInts, ints, nb
	} else if floats, nb, ok := t.FloatCol(col); ok {
		f.kind, f.floats, nulls = fillFloats, floats, nb
	} else if codes, dict, nb, ok := t.StrCol(col); ok {
		f.kind, f.codes, f.strs, nulls = fillStrs, codes, dict.Strs(), nb
	}
	if nulls != nil && nulls.Any() {
		f.nulls = nulls
	}
	return f
}

// null reports whether row r of a typed vector is NULL.
func (f *colFill) null(r int32) bool { return f.nulls != nil && f.nulls.Get(int(r)) }

// value returns the cell of row r.
func (f *colFill) value(r int32) rel.Value {
	switch f.kind {
	case fillInts:
		if f.null(r) {
			return rel.NullOf(rel.TInt)
		}
		return rel.Int(f.ints[r])
	case fillFloats:
		if f.null(r) {
			return rel.NullOf(rel.TFloat)
		}
		return rel.Float(f.floats[r])
	case fillStrs:
		if f.null(r) {
			return rel.NullOf(rel.TString)
		}
		return rel.Str(f.strs[f.codes[r]])
	}
	return f.table.ValueAt(int(r), f.col)
}

// fill writes the column's value of source row ids[i] into the fill's
// slot of row i of arena, whose rows are w values wide. The arena must
// be freshly allocated: a cell's zero fields are left as they are, so a
// number or a NULL writes no pointer and pays no GC write barrier.
func (f *colFill) fill(arena []rel.Value, w int, ids []int32) {
	k := f.slot
	switch f.kind {
	case fillInts:
		for _, r := range ids {
			c := &arena[k]
			c.Typ = rel.TInt
			if f.null(r) {
				c.Null = true
			} else {
				c.I = f.ints[r]
			}
			k += w
		}
	case fillFloats:
		for _, r := range ids {
			c := &arena[k]
			c.Typ = rel.TFloat
			if f.null(r) {
				c.Null = true
			} else {
				c.F = f.floats[r]
			}
			k += w
		}
	case fillStrs:
		for _, r := range ids {
			c := &arena[k]
			c.Typ = rel.TString
			if f.null(r) {
				c.Null = true
			} else {
				c.S = f.strs[f.codes[r]]
			}
			k += w
		}
	case fillCells:
		for _, r := range ids {
			arena[k] = f.table.ValueAt(int(r), f.col)
			k += w
		}
	}
}
