package engine

import "repro/internal/rel"

// This file is the batch executor's one way of reading stored cells. The
// pipeline carries row ids, not values, and every table in a branch's
// scope is a rel.Table — a scan fragment, a seek driver's table, a hash
// or INL join's inner table (a partition's base table among them). A
// colFill reads one column of one such table straight from its typed
// vector: the sink's fills copy a projected column into the result arena
// (or the byte target's scratch batch) for a whole list of row ids at
// once — the only rel.Value an execution writes — and a join reads its
// outer key through one. Values are
// bit-identical to Table.ReadRowInto's.

// fillKind selects a colFill's source representation.
type fillKind uint8

const (
	fillInts   fillKind = iota // TInt vector
	fillFloats                 // TFloat vector
	fillStrs                   // dictionary-coded TString vector
)

// colFill reads one column of a table source; fill lands it in slot
// slot of every row of a result arena.
type colFill struct {
	kind fillKind
	slot int

	ints   []int64
	floats []float64
	codes  []uint32
	strs   []string
	// nulls is nil when the vector has no NULL, so the common all-valid
	// column skips the per-row bitmap probe.
	nulls *rel.Bitmap
}

// newColFill compiles the reader of column col of t, landing in slot.
// t must not change while the fill is in use: a hydrated table of the
// Built, or a scan fragment until its release. A virtual shell's column
// or a fragment's absent one has no vectors, so no reader is compiled
// against one: Prepare skips table 0 when the driver is not resident,
// and a scan compiles table 0's readers against each fragment it
// acquires, with the columns it reads (see readersFor).
func newColFill(t *rel.Table, col, slot int) colFill {
	f := colFill{slot: slot}
	var nulls *rel.Bitmap
	switch t.Columns[col].Typ {
	case rel.TInt:
		f.kind = fillInts
		f.ints, nulls, _ = t.IntCol(col)
	case rel.TFloat:
		f.kind = fillFloats
		f.floats, nulls, _ = t.FloatCol(col)
	default:
		var dict *rel.Dict
		f.kind = fillStrs
		if f.codes, dict, nulls, _ = t.StrCol(col); dict != nil {
			f.strs = dict.Strs()
		}
	}
	if nulls != nil && nulls.Any() {
		f.nulls = nulls
	}
	return f
}

// null reports whether row r of a typed vector is NULL.
func (f *colFill) null(r int32) bool { return f.nulls != nil && f.nulls.Get(int(r)) }

// exists reports whether the INT key of row r is non-NULL and in bi, an
// EXISTS probe index; finger is the caller's seekInt finger.
func (f *colFill) exists(bi *builtIndex, r int32, finger *int) bool {
	return !f.null(r) && len(bi.seekInt(f.ints[r], finger)) > 0
}

// fill writes the column's value of source row ids[i] into the fill's
// slot of row i of arena, whose rows are w values wide. The arena must
// be zeroed — freshly allocated, or the byte target's scratch, which the
// sink clears after each batch: a cell's zero fields are left as they
// are, so a number or a NULL writes no pointer and pays no GC write
// barrier.
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
	}
}
