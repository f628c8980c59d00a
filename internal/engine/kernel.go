package engine

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/sqlast"
)

// This file holds the columnar filter kernels of the batch executor.
// Every predicate on one table compiles to a colKernel: a tight loop
// over one typed column vector that compacts a list of the table's row
// ids in place, without boxing a rel.Value per cell. Driver-stage
// predicates (everything before the first join) run on the driver's
// row-id vector directly; a predicate after a join runs the same kernel
// over the row ids in its table's vector of the batch (see rowFilter).
// Every kernel is bit-equivalent to matchCompare over the materialized
// row — the specialized paths delegate to rel.CompareInts/CompareFloats
// (the scalar orders Value.Compare is built on) and the generic fallback
// materializes single cells through Table.ValueAt.

// colKernel compacts a list of row ids in place, returning the
// surviving prefix.
type colKernel func(sel []int32) []int32

// rowFilter compacts a batch — one row-id vector per table in scope,
// all of one length — to the rows a predicate keeps. scratch is a
// batchSize-capacity buffer it may overwrite.
type rowFilter func(vecs [][]int32, scratch []int32)

// compileRowFilter compiles a predicate after a join against srcs, the
// source of each table in scope. A predicate on table tab runs that
// table's kernel; one reading several tables (tab < 0) compares cell by
// cell.
func compileRowFilter(b *Built, p *sqlast.Pred, tab int, srcs []*rel.Table, sc *scope) (rowFilter, error) {
	if tab < 0 {
		return cellFilter(b, p, srcs, sc)
	}
	k, err := compileColKernel(b, p, srcs[tab], sc)
	if err != nil {
		return nil, err
	}
	if k == nil {
		return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
	}
	return func(vecs [][]int32, scratch []int32) {
		ids := vecs[tab]
		live := k(append(scratch[:0], ids...))
		if len(live) == len(ids) {
			return
		}
		// live is the subsequence of ids the kernel kept, and whether a
		// row survives depends on its id alone, so position i survives
		// exactly when ids[i] is the next survivor.
		n := 0
		for i, r := range ids {
			if n < len(live) && live[n] == r {
				for _, v := range vecs {
					v[n] = v[i]
				}
				n++
			}
		}
		truncate(vecs, n)
	}, nil
}

// cellFilter compiles an OR or EXISTS predicate whose columns lie in
// several tables: each row reads its cells through ValueAt.
func cellFilter(b *Built, p *sqlast.Pred, srcs []*rel.Table, sc *scope) (rowFilter, error) {
	cols, err := colPositions(sc.at, p.Cols)
	if err != nil {
		return nil, err
	}
	var outer tabCol
	var bi *builtIndex
	var key colFill
	switch p.Kind {
	case sqlast.PredOr:
	case sqlast.PredExists, sqlast.PredOrExists:
		if outer, err = sc.at(p.OuterCol); err != nil {
			return nil, err
		}
		if bi, err = b.existsIndex(p); err != nil {
			return nil, err
		}
		key = newColFill(srcs[outer.tab], outer.col, 0)
	default:
		return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
	}
	return func(vecs [][]int32, _ []int32) {
		finger := 0
		keep := func(i int) bool {
			for _, c := range cols {
				if matchCompare(srcs[c.tab].ValueAt(int(vecs[c.tab][i]), c.col), p.Op, p.Value) {
					return true
				}
			}
			return bi != nil && key.exists(bi, vecs[outer.tab][i], &finger)
		}
		n := 0
		for i := range vecs[0] {
			if keep(i) {
				for _, v := range vecs {
					v[n] = v[i]
				}
				n++
			}
		}
		truncate(vecs, n)
	}, nil
}

// truncate cuts every vector of a batch to its first n rows.
func truncate(vecs [][]int32, n int) {
	for t := range vecs {
		vecs[t] = vecs[t][:n]
	}
}

// compileColKernel compiles one predicate into a columnar kernel over
// one table's row ids — the driver table, a fragment of it, or a join's
// inner table: column references resolve to column indices (scope.col).
// It never fails to produce a kernel for a supported predicate kind:
// unsupported column/literal shapes fall back to a per-cell ValueAt
// kernel.
func compileColKernel(b *Built, p *sqlast.Pred, t *rel.Table, sc *scope) (colKernel, error) {
	switch p.Kind {
	case sqlast.PredCompare:
		pos, err := sc.col(p.Col)
		if err != nil {
			return nil, err
		}
		if k := compareKernel(t, pos, p.Op, p.Value); k != nil {
			return k, nil
		}
		op, lit := p.Op, p.Value
		return func(sel []int32) []int32 {
			live := sel[:0]
			for _, r := range sel {
				if matchCompare(t.ValueAt(int(r), pos), op, lit) {
					live = append(live, r)
				}
			}
			return live
		}, nil
	case sqlast.PredOr:
		positions, err := colPositions(sc.col, p.Cols)
		if err != nil {
			return nil, err
		}
		op, lit := p.Op, p.Value
		return func(sel []int32) []int32 {
			live := sel[:0]
			for _, r := range sel {
				for _, pos := range positions {
					if matchCompare(t.ValueAt(int(r), pos), op, lit) {
						live = append(live, r)
						break
					}
				}
			}
			return live
		}, nil
	case sqlast.PredExists, sqlast.PredOrExists:
		positions, err := colPositions(sc.col, p.Cols)
		if err != nil {
			return nil, err
		}
		outerPos, err := sc.col(p.OuterCol)
		if err != nil {
			return nil, err
		}
		bi, err := b.existsIndex(p)
		if err != nil {
			return nil, err
		}
		key := newColFill(t, outerPos, 0)
		op, lit := p.Op, p.Value
		return func(sel []int32) []int32 {
			live := sel[:0]
			finger := 0
		rows:
			for _, r := range sel {
				for _, pos := range positions {
					if matchCompare(t.ValueAt(int(r), pos), op, lit) {
						live = append(live, r)
						continue rows
					}
				}
				if key.exists(bi, r, &finger) {
					live = append(live, r)
				}
			}
			return live
		}, nil
	}
	return nil, nil
}

// compareKernel builds the typed fast path for a PredCompare over
// column ci, or nil when the column/literal shape needs the generic
// fallback (a column with no resident vector, or a literal whose
// comparison against the column type crosses into string space).
func compareKernel(t *rel.Table, ci int, op sqlast.CmpOp, lit rel.Value) colKernel {
	if lit.Null {
		// matchCompare never matches a NULL literal.
		return func(sel []int32) []int32 { return sel[:0] }
	}
	switch t.Columns[ci].Typ {
	case rel.TInt:
		ints, nulls, ok := t.IntCol(ci)
		if !ok {
			return nil
		}
		switch lit.Typ {
		case rel.TInt:
			l := lit.I
			return func(sel []int32) []int32 {
				live := sel[:0]
				for _, r := range sel {
					if !nulls.Get(int(r)) && op.Matches(rel.CompareInts(ints[r], l)) {
						live = append(live, r)
					}
				}
				return live
			}
		case rel.TFloat:
			// Mixed numeric types compare as floats (Value.Compare).
			l := lit.F
			return func(sel []int32) []int32 {
				live := sel[:0]
				for _, r := range sel {
					if !nulls.Get(int(r)) && op.Matches(rel.CompareFloats(float64(ints[r]), l)) {
						live = append(live, r)
					}
				}
				return live
			}
		}
		return nil // string literal vs int column compares string forms
	case rel.TFloat:
		floats, nulls, ok := t.FloatCol(ci)
		if !ok {
			return nil
		}
		var l float64
		switch lit.Typ {
		case rel.TFloat:
			l = lit.F
		case rel.TInt:
			l = float64(lit.I)
		default:
			return nil
		}
		return func(sel []int32) []int32 {
			live := sel[:0]
			for _, r := range sel {
				if !nulls.Get(int(r)) && op.Matches(rel.CompareFloats(floats[r], l)) {
					live = append(live, r)
				}
			}
			return live
		}
	case rel.TString:
		codes, dict, nulls, ok := t.StrCol(ci)
		if !ok {
			return nil
		}
		// A string column compares its raw bytes against the literal's
		// string form whatever the literal type (Value.Compare).
		litS := lit.String()
		if op == sqlast.OpEq {
			// Equality resolves to one dictionary code — or to nothing,
			// when the literal never occurs in the column.
			c, present := dict.Code(litS)
			if !present {
				return func(sel []int32) []int32 { return sel[:0] }
			}
			return func(sel []int32) []int32 {
				live := sel[:0]
				for _, r := range sel {
					if codes[r] == c && !nulls.Get(int(r)) {
						live = append(live, r)
					}
				}
				return live
			}
		}
		// Range ops: decide once per distinct string, then filter on
		// codes — the dictionary is frozen during execution (generation
		// guards), so the table is complete.
		match := make([]bool, dict.Len())
		for code, s := range dict.Strs() {
			match[code] = op.Matches(strings.Compare(s, litS))
		}
		return func(sel []int32) []int32 {
			live := sel[:0]
			for _, r := range sel {
				if !nulls.Get(int(r)) && match[codes[r]] {
					live = append(live, r)
				}
			}
			return live
		}
	}
	return nil
}
