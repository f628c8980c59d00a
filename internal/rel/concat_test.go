package rel

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// concatCols hold every column shape Concat joins: numbers with NULLs,
// a string column whose few words repeat within and across parts, one
// that is NULL in every row, and one that is distinct in every row.
var concatCols = []Column{
	{Name: IDColumn, Typ: TInt},
	{Name: "n", Typ: TInt, Nullable: true},
	{Name: "f", Typ: TFloat, Nullable: true},
	{Name: "word", Typ: TString, Nullable: true},
	{Name: "none", Typ: TString, Nullable: true},
	{Name: "key", Typ: TString},
}

// concatRow is row id over concatCols, its nullable cells chosen by op.
func concatRow(id int, op byte) []Value {
	row := []Value{Int(int64(id)), NullOf(TInt), NullOf(TFloat), NullOf(TString), NullOf(TString), Str(fmt.Sprintf("k%d", id))}
	if op&1 != 0 {
		row[1] = Int(int64(op) - 100)
	}
	if op&2 != 0 {
		row[2] = Float([]float64{math.NaN(), math.Copysign(0, -1), float64(op) / 7}[int(op>>2)%3])
	}
	if op&4 != 0 {
		row[3] = Str([]string{"", "a", "bb", "a-long-word"}[int(op>>3)%4])
	}
	return row
}

// checkConcat concatenates parts of the given row counts, the cells of
// row i chosen by ops[i % len(ops)], and requires the result to equal a
// table that appended the same rows: snapshot (floats by bits), bytes,
// row count and null counts. With prefixLast the last part is a Prefix
// cut of a longer table that grows after the cut. The result must also
// pass TableFromSnapshot, and its dictionaries keep no index and no
// spare capacity.
func checkConcat(t *testing.T, sizes []int, prefixLast bool, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{0}
	}
	want := NewTable("t", concatCols)
	want.Parent = "p"
	parts := make([]*Table, len(sizes))
	id := 0
	for pi, n := range sizes {
		part := NewTable(fmt.Sprintf("part%d", pi), concatCols)
		for ; n > 0; n-- {
			row := concatRow(id, ops[id%len(ops)])
			part.AppendRow(row)
			want.AppendRow(row)
			id++
		}
		parts[pi] = part
		if prefixLast && pi == len(sizes)-1 {
			parts[pi] = part.Prefix(part.RowCount())
			for k := 0; k < 70; k++ {
				part.AppendRow(concatRow(id+k, ops[k%len(ops)]^0xff))
			}
		}
	}
	label := fmt.Sprintf("parts %v, prefix last %v", sizes, prefixLast)
	got := Concat("t", "p", concatCols, parts...)
	if !snapshotsEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("%s: not snapshot-equal to a table that appended the rows", label)
	}
	if got.Bytes() != want.Bytes() || got.RowCount() != want.RowCount() {
		t.Fatalf("%s: %d rows / %d bytes, want %d / %d", label, got.RowCount(), got.Bytes(), want.RowCount(), want.Bytes())
	}
	for ci := range concatCols {
		gv, wv := &got.cols[ci], &want.cols[ci]
		if gv.nulls.Len() != wv.nulls.Len() || gv.nulls.SetCount() != wv.nulls.SetCount() {
			t.Fatalf("%s: column %s has %d of %d rows NULL, want %d of %d", label, concatCols[ci].Name,
				gv.nulls.SetCount(), gv.nulls.Len(), wv.nulls.SetCount(), wv.nulls.Len())
		}
		if d := gv.dict; d != nil && (d.idx != nil || cap(d.strs) != len(d.strs)) {
			t.Fatalf("%s: column %s's dictionary keeps an index of %d slots or %d spare entries",
				label, concatCols[ci].Name, len(d.idx), cap(d.strs)-len(d.strs))
		}
	}
	if _, err := TableFromSnapshot(got.Snapshot()); err != nil {
		t.Fatalf("%s: result does not validate: %v", label, err)
	}
}

// TestConcatMatchesAppend runs checkConcat over every sequence of one to
// three parts of 0, 1, 63, 64 and 65 rows, with and without a Prefix cut
// as the last part.
func TestConcatMatchesAppend(t *testing.T) {
	ops := make([]byte, 97)
	for i := range ops {
		ops[i] = byte(i*37 + i/5)
	}
	sizes := []int{0, 1, 63, 64, 65}
	var walk func(seq []int)
	walk = func(seq []int) {
		if len(seq) > 0 {
			checkConcat(t, seq, false, ops)
			checkConcat(t, seq, true, ops)
		}
		if len(seq) == 3 {
			return
		}
		for _, n := range sizes {
			walk(append(seq[:len(seq):len(seq)], n))
		}
	}
	walk(nil)
}

// TestConcatOfNothing: zero parts, or parts of no rows, give NewTable's
// empty table, whose vectors are nil.
func TestConcatOfNothing(t *testing.T) {
	want := NewTable("t", concatCols)
	want.Parent = "p"
	for _, parts := range [][]*Table{nil, {NewTable("a", concatCols), NewTable("b", concatCols)}} {
		got := Concat("t", "p", concatCols, parts...)
		if got.RowCount() != 0 || got.Bytes() != 0 {
			t.Fatalf("%d empty parts: %d rows / %d bytes", len(parts), got.RowCount(), got.Bytes())
		}
		for ci, cs := range got.Snapshot().Columns {
			if cs.NullWords != nil || cs.Ints != nil || cs.Floats != nil || cs.Codes != nil || cs.Dict != nil {
				t.Fatalf("%d empty parts: column %d has non-nil vectors %+v", len(parts), ci, cs)
			}
		}
		if !snapshotsEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("%d empty parts: not NewTable's empty table", len(parts))
		}
		// The result is a table like any other: it grows.
		got.AppendRow(concatRow(0, 7))
	}
}

// TestConcatRefusesOtherParts: a part that is not whole and resident,
// or is over other columns, is a programming error and panics.
func TestConcatRefusesOtherParts(t *testing.T) {
	renamed := append([]Column(nil), concatCols...)
	renamed[1].Name = "m"
	notNull := append([]Column(nil), concatCols...)
	notNull[1].Nullable = false
	oneCol := NewFragment("t", "p", concatCols, 0)
	if err := oneCol.AdoptColumn(0, &ColumnSnapshot{Col: concatCols[0]}); err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string]*Table{
		"fragment":        NewFragment("t", "p", concatCols, 0),
		"one column":      oneCol,
		"fewer columns":   NewTable("t", concatCols[:2]),
		"renamed column":  NewTable("t", renamed),
		"NOT NULL column": NewTable("t", notNull),
		"virtual shell":   NewVirtualTable("t", "p", concatCols, 0, 0, func() (*Table, error) { return NewTable("t", concatCols), nil }),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Concat accepted the part", name)
				}
			}()
			Concat("t", "p", concatCols, NewTable("t", concatCols), part)
		}()
	}
}

// FuzzConcat is checkConcat over fuzzed part sizes and cells. The
// first byte holds the part count (low 3 bits, at most 5) and whether the
// last part is a Prefix cut (bit 3); one byte per part gives its row
// count, 0 to 130; the rest choose the cells.
func FuzzConcat(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 63, 64, 0x17, 0xff, 4, 5})
	f.Add([]byte{0x0b, 65, 0, 64, 4, 12, 20, 28})
	f.Add([]byte{2, 130, 129, 0xfc})
	f.Add([]byte(strings.Repeat("\x04\x05\x00\x01\x02", 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := min(int(data[0]&7), 5, len(data)-1)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = int(data[1+i]) % 131
		}
		checkConcat(t, sizes, n > 0 && data[0]&8 != 0, data[1+n:])
	})
}
