package rel

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is the snapshot/restore boundary of the columnar store: an
// exported, serialization-friendly view of a Table's internal vectors
// (TableSnapshot) and a validating constructor that rebuilds a Table
// from one (TableFromSnapshot). The persistence layer
// (internal/storage) encodes snapshots into binary segments; restoring
// goes through full structural validation and returns errors — never
// panics — because the bytes may come from a truncated or corrupted
// file.

// ColumnSnapshot is the columnar state of one column. The slices alias
// the table's backing store when produced by Snapshot — callers must
// treat them as read-only — and are adopted without copying by
// TableFromSnapshot.
type ColumnSnapshot struct {
	// Col is the column descriptor.
	Col Column
	// NullWords is the null bitmap's word array, one bit per row
	// (set = NULL), little bit order within each 64-bit word.
	NullWords []uint64
	// Ints holds the payload vector of a TInt column (len == rows).
	Ints []int64
	// Floats holds the payload vector of a TFloat column.
	Floats []float64
	// Codes holds the dictionary codes of a TString column.
	Codes []uint32
	// Dict holds the string dictionary in code order (TString only).
	Dict []string
}

// TableSnapshot is the complete columnar state of a Table.
type TableSnapshot struct {
	// Name and Parent mirror Table.Name and Table.Parent.
	Name   string
	Parent string
	// RowCount is the number of rows.
	RowCount int
	// Columns has one entry per column, in column order.
	Columns []ColumnSnapshot
}

// Snapshot returns the table's columnar state. The returned slices
// alias the table's storage: the snapshot is valid as long as the table
// is not mutated, and must not be written through.
func (t *Table) Snapshot() *TableSnapshot {
	t.requireWhole()
	s := &TableSnapshot{
		Name:     t.Name,
		Parent:   t.Parent,
		RowCount: t.nrows,
		Columns:  make([]ColumnSnapshot, len(t.Columns)),
	}
	for i := range t.Columns {
		cv := &t.cols[i]
		cs := ColumnSnapshot{
			Col:       t.Columns[i],
			NullWords: cv.nulls.words,
			Ints:      cv.ints,
			Floats:    cv.floats,
			Codes:     cv.codes,
		}
		if cv.dict != nil {
			cs.Dict = cv.dict.strs
		}
		s.Columns[i] = cs
	}
	return s
}

// TableFromSnapshot rebuilds a Table from a snapshot, adopting the
// snapshot's slices as the table's backing store. Every structural
// invariant the append path maintains is re-checked — vector lengths,
// bitmap shape, dictionary canonicality — so a
// snapshot decoded from an untrusted byte stream either yields a table
// bit-identical to the one that produced it or a descriptive error,
// never a panic and never a silently wrong table. Byte accounting is
// recomputed from the vectors, column by column (not trusted from the
// source), so Bytes()/Pages() match what AppendRow would have
// accumulated.
func TableFromSnapshot(s *TableSnapshot) (*Table, error) {
	if s == nil {
		return nil, fmt.Errorf("rel: nil snapshot")
	}
	if s.Name == "" {
		return nil, fmt.Errorf("rel: snapshot has empty table name")
	}
	if s.RowCount < 0 {
		return nil, fmt.Errorf("rel: snapshot of %s has negative row count %d", s.Name, s.RowCount)
	}
	cols := make([]Column, len(s.Columns))
	for i := range s.Columns {
		if cols[i] = s.Columns[i].Col; cols[i].Name == "" {
			return nil, fmt.Errorf("rel: snapshot of %s: column %d has empty name", s.Name, i)
		}
	}
	idx, err := indexColumns(s.Name, cols)
	if err != nil {
		return nil, err
	}
	t := newFragment(s.Name, s.Parent, cols, s.RowCount, idx)
	for i := range s.Columns {
		if err := t.AdoptColumn(i, &s.Columns[i]); err != nil {
			return nil, err
		}
	}
	// Recompute byte accounting exactly as AppendRow would have: the
	// per-row overhead plus every column's value widths.
	t.bytes = 8 * int64(t.nrows)
	for ci := range t.cols {
		t.bytes += t.cols[ci].widthSum()
	}
	return t, nil
}

// AdoptColumn validates cs as the state of column ci, which must be
// absent, and makes the column resident, adopting cs's slices without
// copying. Validation is colVecFromSnapshot's, the same TableFromSnapshot
// runs; an invalid column is an error and leaves the column absent. It
// writes t in place, so t must not be shared yet — a cache that grows a
// shared fragment merges a private one in with WithColumns.
func (t *Table) AdoptColumn(ci int, cs *ColumnSnapshot) error {
	if ci < 0 || ci >= len(t.cols) {
		return fmt.Errorf("rel: adopting column %d of %s, which has %d", ci, t.Name, len(t.cols))
	}
	if cs.Col != t.Columns[ci] {
		return fmt.Errorf("rel: adopting %+v as column %d of %s, which declares %+v", cs.Col, ci, t.Name, t.Columns[ci])
	}
	if !t.cols[ci].absent {
		return fmt.Errorf("rel: column %s.%s is already resident", t.Name, cs.Col.Name)
	}
	cv, err := colVecFromSnapshot(t.Name, cs, t.nrows)
	if err != nil {
		return err
	}
	t.cols[ci] = cv
	t.absent--
	return nil
}

// colVecFromSnapshot validates and adopts one column's vectors.
func colVecFromSnapshot(table string, cs *ColumnSnapshot, rows int) (colVec, error) {
	var zero colVec
	name := cs.Col.Name
	bad := func(format string, a ...any) (colVec, error) {
		return zero, fmt.Errorf("rel: snapshot of %s.%s: %s", table, name, fmt.Sprintf(format, a...))
	}
	switch cs.Col.Typ {
	case TInt, TFloat, TString:
	default:
		return bad("unknown column type %d", int(cs.Col.Typ))
	}

	// Null bitmap: exact word count, zero trailing bits, recomputed
	// set count, and no set bit in a NOT NULL column (Column.Admits).
	wantWords := (rows + 63) / 64
	if len(cs.NullWords) != wantWords {
		return bad("null bitmap has %d words, want %d for %d rows", len(cs.NullWords), wantWords, rows)
	}
	set := 0
	for _, w := range cs.NullWords {
		set += bits.OnesCount64(w)
	}
	if tail := rows % 64; tail != 0 {
		if cs.NullWords[wantWords-1]>>uint(tail) != 0 {
			return bad("null bitmap has bits set beyond row %d", rows)
		}
	}
	if set > 0 && !cs.Col.Nullable {
		return bad("NOT NULL column holds %d NULLs", set)
	}
	nulls := Bitmap{words: cs.NullWords, n: rows, set: set}

	// Typed payload vector: exactly one, matching the declared type.
	switch cs.Col.Typ {
	case TInt:
		if len(cs.Ints) != rows {
			return bad("int vector has %d entries, want %d", len(cs.Ints), rows)
		}
		if len(cs.Floats) != 0 || len(cs.Codes) != 0 || len(cs.Dict) != 0 {
			return bad("INT column carries payload vectors of another type")
		}
	case TFloat:
		if len(cs.Floats) != rows {
			return bad("float vector has %d entries, want %d", len(cs.Floats), rows)
		}
		if len(cs.Ints) != 0 || len(cs.Codes) != 0 || len(cs.Dict) != 0 {
			return bad("FLOAT column carries payload vectors of another type")
		}
	case TString:
		if len(cs.Codes) != rows {
			return bad("code vector has %d entries, want %d", len(cs.Codes), rows)
		}
		if len(cs.Ints) != 0 || len(cs.Floats) != 0 {
			return bad("VARCHAR column carries payload vectors of another type")
		}
	}

	// Dictionary canonicality and per-row payload invariants, modeled
	// exactly on colVec.append: a NULL row holds a zero payload slot and
	// every other row its value; dictionary entries appear in
	// first-appearance order with no unused or duplicate entries.
	// Enforcing the same shape here makes snapshot->table->snapshot the
	// identity, which the golden-format and fuzz round-trip tests rely
	// on. Non-NULL rows put no constraint on a numeric vector, so the
	// numeric columns visit only the set bits of the bitmap, word by
	// word.
	var dict *Dict
	switch cs.Col.Typ {
	case TInt:
		for wi, w := range cs.NullWords {
			for ; w != 0; w &= w - 1 {
				if r := wi*64 + bits.TrailingZeros64(w); cs.Ints[r] != 0 {
					return bad("row %d payload slot is %d, want 0", r, cs.Ints[r])
				}
			}
		}
	case TFloat:
		for wi, w := range cs.NullWords {
			for ; w != 0; w &= w - 1 {
				if r := wi*64 + bits.TrailingZeros64(w); math.Float64bits(cs.Floats[r]) != 0 {
					return bad("row %d payload slot is %v, want bits 0", r, cs.Floats[r])
				}
			}
		}
	case TString:
		dict = &Dict{strs: cs.Dict}
		if ds, dup := firstDuplicate(cs.Dict); dup {
			return bad("dictionary entry %q duplicated", ds)
		}
		next := uint32(0) // next first-appearance code expected
		for r, c := range cs.Codes {
			if nulls.set > 0 && nulls.Get(r) {
				if c != 0 {
					return bad("row %d is NULL but code slot is %d, want 0", r, c)
				}
				continue
			}
			if c > next || int(c) >= len(cs.Dict) {
				return bad("row %d has code %d out of first-appearance order (next new code %d, dict size %d)",
					r, c, next, len(cs.Dict))
			}
			if c == next {
				next++
			}
		}
		if int(next) != len(cs.Dict) {
			return bad("dictionary has %d entries but only %d are referenced", len(cs.Dict), next)
		}
	}

	return colVec{typ: cs.Col.Typ, nulls: nulls, ints: cs.Ints, floats: cs.Floats, codes: cs.Codes, dict: dict}, nil
}

// widthSum returns the accounting width of every value in the column,
// what AppendRow's running total holds for it: 1 per NULL, 8 per
// numeric, the string length (min 1) per string. Table byte accounting
// and index sizes (Table.WidthSum) both come from here.
func (cv *colVec) widthSum() int64 {
	rows, nulls := int64(cv.nulls.n), int64(cv.nulls.set)
	if cv.typ != TString {
		return nulls + 8*(rows-nulls)
	}
	b := nulls
	for r, c := range cv.codes {
		if nulls > 0 && cv.nulls.Get(r) {
			continue
		}
		b += int64(max(len(cv.dict.strs[c]), 1))
	}
	return b
}
