package engine

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/sqlast"
)

// This file holds the columnar filter kernels of the batch executor.
// Every predicate reads one table (planShape) and compiles to a
// colKernel: a loop over the table's column vectors that compacts a list
// of its row ids in place. Driver-stage predicates (everything before
// the first join) run on the driver's row-id vector directly; a
// predicate after a join runs the same kernel over the row ids in its
// table's vector of the batch (see rowFilter). Every kernel is
// bit-equivalent to matchCompare over the materialized row: a compare
// reads one typed vector against a literal of its own type through
// rel.CompareInts/CompareFloats (the scalar orders Value.Compare is
// built on), and an OR-or-EXISTS reads its occurrence cells through
// Table.ValueAt.

// colKernel compacts a list of row ids in place, returning the
// surviving prefix.
type colKernel func(sel []int32) []int32

// rowFilter compacts a batch — one row-id vector per table in scope,
// all of one length — to the rows a predicate keeps. scratch is a
// batchSize-capacity buffer it may overwrite.
type rowFilter func(vecs [][]int32, scratch []int32)

// compileRowFilter compiles a predicate after a join, on table tab,
// against srcs, the source of each table in scope: it runs that table's
// kernel.
func compileRowFilter(b *Built, p *sqlast.Pred, tab int, srcs []*rel.Table, sc *scope) (rowFilter, error) {
	k, err := compileColKernel(b, p, srcs[tab], sc)
	if err != nil {
		return nil, err
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

// truncate cuts every vector of a batch to its first n rows.
func truncate(vecs [][]int32, n int) {
	for t := range vecs {
		vecs[t] = vecs[t][:n]
	}
}

// compileColKernel compiles one predicate into a columnar kernel over
// one table's row ids — the driver table, a fragment of it, or a join's
// inner table, resident with the columns the predicate reads: column
// references resolve to column indices (scope.col).
func compileColKernel(b *Built, p *sqlast.Pred, t *rel.Table, sc *scope) (colKernel, error) {
	switch p.Kind {
	case sqlast.PredCompare:
		pos, err := sc.col(p.Col)
		if err != nil {
			return nil, err
		}
		return compareKernel(t, pos, p.Op, p.Value), nil
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
	return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
}

// compareKernel builds the kernel of a PredCompare over column ci. A
// non-NULL literal has the column's type (planShape).
func compareKernel(t *rel.Table, ci int, op sqlast.CmpOp, lit rel.Value) colKernel {
	if lit.Null {
		// matchCompare never matches a NULL literal.
		return func(sel []int32) []int32 { return sel[:0] }
	}
	switch t.Columns[ci].Typ {
	case rel.TInt:
		ints, nulls, _ := t.IntCol(ci)
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
		floats, nulls, _ := t.FloatCol(ci)
		l := lit.F
		return func(sel []int32) []int32 {
			live := sel[:0]
			for _, r := range sel {
				if !nulls.Get(int(r)) && op.Matches(rel.CompareFloats(floats[r], l)) {
					live = append(live, r)
				}
			}
			return live
		}
	}
	codes, dict, nulls, _ := t.StrCol(ci)
	if op == sqlast.OpEq {
		// Equality resolves to one dictionary code — or to nothing, when
		// the literal never occurs in the column.
		c, present := dict.Code(lit.S)
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
	// Range ops: decide once per distinct string, then filter on codes —
	// the dictionary is frozen during execution (generation guards), so
	// the table is complete.
	match := make([]bool, dict.Len())
	for code, s := range dict.Strs() {
		match[code] = op.Matches(strings.Compare(s, lit.S))
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
