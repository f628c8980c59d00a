package engine

import "repro/internal/rel"

// This file is the batch executor's one way of turning stored rows into
// tuples. A tuple carries only the columns something after the scan
// reads (see scope.slot), and every tuple source is a rel.Table — a scan
// fragment, a seek driver's table, a hash or INL join's inner table (a
// partition's base table among them) — that lands its share of them
// through colFills: one per referenced column, each copying that column
// into its tuple slot for a whole list of row ids at once, straight from
// the typed vector. Values are bit-identical to Table.ReadRowInto's.

// fillKind selects a colFill's source representation.
type fillKind uint8

const (
	fillInts   fillKind = iota // clean TInt vector
	fillFloats                 // clean TFloat vector
	fillStrs                   // clean dictionary-coded TString vector
	fillCells                  // a column holding exception values: per-cell ValueAt
)

// colFill copies one column of a tuple source into one tuple slot.
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

// tableFills compiles the fills that land refs' columns of t. t must be
// resident and must not change while the fills are in use: a hydrated
// table of the Built, or a scan fragment until its release.
func tableFills(t *rel.Table, refs []colRef) []colFill {
	fills := make([]colFill, len(refs))
	for i, r := range refs {
		f := colFill{kind: fillCells, slot: r.slot, col: r.col, table: t}
		var nulls *rel.Bitmap
		if ints, nb, ok := t.IntCol(r.col); ok {
			f.kind, f.ints, nulls = fillInts, ints, nb
		} else if floats, nb, ok := t.FloatCol(r.col); ok {
			f.kind, f.floats, nulls = fillFloats, floats, nb
		} else if codes, dict, nb, ok := t.StrCol(r.col); ok {
			f.kind, f.codes, f.strs, nulls = fillStrs, codes, dict.Strs(), nb
		}
		if nulls != nil && nulls.Any() {
			f.nulls = nulls
		}
		fills[i] = f
	}
	return fills
}

// fill writes the column's value of source row ids[i] into the fill's
// slot of tuple i of arena, whose tuples are w values wide.
func (f *colFill) fill(arena []rel.Value, w int, ids []int32) {
	k := f.slot
	switch f.kind {
	case fillInts:
		for _, r := range ids {
			if f.nulls != nil && f.nulls.Get(int(r)) {
				arena[k] = rel.NullOf(rel.TInt)
			} else {
				arena[k] = rel.Int(f.ints[r])
			}
			k += w
		}
	case fillFloats:
		for _, r := range ids {
			if f.nulls != nil && f.nulls.Get(int(r)) {
				arena[k] = rel.NullOf(rel.TFloat)
			} else {
				arena[k] = rel.Float(f.floats[r])
			}
			k += w
		}
	case fillStrs:
		for _, r := range ids {
			if f.nulls != nil && f.nulls.Get(int(r)) {
				arena[k] = rel.NullOf(rel.TString)
			} else {
				arena[k] = rel.Str(f.strs[f.codes[r]])
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
