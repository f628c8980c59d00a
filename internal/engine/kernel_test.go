package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rel"
	"repro/internal/sqlast"
)

// kernelTable builds a table whose columns exercise every kernel shape:
// int/float/string vectors with NULLs and special floats, plus a string
// column of digits.
func kernelTable(r *rand.Rand, rows int) *rel.Table {
	t := rel.NewTable("K", []rel.Column{
		{Name: "i", Typ: rel.TInt, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true},
		{Name: "s", Typ: rel.TString, Nullable: true},
		{Name: "digits", Typ: rel.TString, Nullable: true},
	})
	for n := 0; n < rows; n++ {
		var iv, fv, sv, dv rel.Value
		if r.Intn(8) == 0 {
			iv = rel.NullOf(rel.TInt)
		} else {
			iv = rel.Int(r.Int63n(20) - 10)
		}
		switch r.Intn(10) {
		case 0:
			fv = rel.NullOf(rel.TFloat)
		case 1:
			fv = rel.Float(math.NaN())
		case 2:
			fv = rel.Float(math.Inf(1))
		case 3:
			fv = rel.Float(math.Copysign(0, -1))
		default:
			fv = rel.Float(float64(r.Intn(16)) / 4)
		}
		if r.Intn(8) == 0 {
			sv = rel.NullOf(rel.TString)
		} else {
			sv = rel.Str(fmt.Sprintf("v-%02d", r.Intn(10)))
		}
		if r.Intn(8) == 0 {
			dv = rel.NullOf(rel.TString)
		} else {
			dv = rel.Str(fmt.Sprint(r.Intn(5)))
		}
		t.AppendRow([]rel.Value{iv, fv, sv, dv})
	}
	return t
}

// TestCompareKernelEquivalence: for every comparison operator, column
// shape, and a battery of literals of the column's type — special ones
// and NULLs included — the compiled columnar kernel keeps exactly the
// rows matchCompare keeps on the materialized values. This is the
// contract that lets the batch executor filter on vectors while the
// reference executor stays row-at-a-time.
func TestCompareKernelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tbl := kernelTable(r, 700)
	sc := newScope()
	sc.add("K", []string{"i", "f", "s", "digits"})
	ops := []sqlast.CmpOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
	lits := map[string][]rel.Value{
		"i": {rel.Int(0), rel.Int(-3), rel.NullOf(rel.TInt)},
		"f": {rel.Float(2.5), rel.Float(math.NaN()), rel.Float(math.Inf(1)), rel.Float(math.Copysign(0, -1)),
			rel.NullOf(rel.TFloat)},
		"s":      {rel.Str("v-03"), rel.Str("absent"), rel.Str(""), rel.NullOf(rel.TString)},
		"digits": {rel.Str("3"), rel.NullOf(rel.TString)},
	}
	all := make([]int32, tbl.RowCount())
	for i := range all {
		all[i] = int32(i)
	}
	for col, cands := range lits {
		pos := tbl.ColIndex(col)
		for _, op := range ops {
			for _, lit := range cands {
				p := &sqlast.Pred{Kind: sqlast.PredCompare, Op: op, Value: lit,
					Col: sqlast.ColRef{Table: "K", Column: col}}
				k, err := compileColKernel(nil, p, tbl, sc)
				if err != nil {
					t.Fatalf("%s %v %v: compile: %v", col, op, lit, err)
				}
				if k == nil {
					t.Fatalf("%s %v %v: no kernel compiled", col, op, lit)
				}
				sel := append([]int32(nil), all...)
				got := k(sel)
				var want []int32
				for _, ri := range all {
					if matchCompare(tbl.ValueAt(int(ri), pos), op, lit) {
						want = append(want, ri)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s %v %v: kernel kept %d rows, matchCompare %d",
						col, op, lit, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v %v: survivor %d is row %d, want %d",
							col, op, lit, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPostJoinFilterMatchesNaive: a post-join filter compacts a batch —
// one row-id vector per table, ids repeating as joins repeat them — to
// exactly the positions whose rows match, every vector in step, in
// order: a predicate runs its table's kernel over a copy of its vector.
func TestPostJoinFilterMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(engineTestSeed(t)))
	srcs := []*rel.Table{kernelTable(r, 300), kernelTable(r, 40)}
	cols := []string{"i", "f", "s", "digits"}
	sc := newScope()
	sc.add("K", cols)
	sc.add("L", cols)
	cmp := func(tbl, c string, op sqlast.CmpOp, v rel.Value) *sqlast.Pred {
		return &sqlast.Pred{Kind: sqlast.PredCompare, Op: op, Value: v, Col: sqlast.ColRef{Table: tbl, Column: c}}
	}
	preds := []*sqlast.Pred{
		cmp("K", "i", sqlast.OpGe, rel.Int(0)),
		cmp("L", "s", sqlast.OpLt, rel.Str("v-05")),
		cmp("L", "f", sqlast.OpNe, rel.Float(1)),
		cmp("K", "digits", sqlast.OpEq, rel.Str("3")),
	}
	for iter := 0; iter < 200; iter++ {
		n := r.Intn(batchSize + 1)
		vecs := make([][]int32, 2)
		for k := range vecs {
			for i := 0; i < n; i++ {
				vecs[k] = append(vecs[k], int32(r.Intn(srcs[k].RowCount())))
			}
		}
		for _, p := range preds {
			st := sc.tables[p.Col.Table]
			f, err := compileRowFilter(nil, p, st.idx, srcs, sc)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			var want [2][]int32
			for i := 0; i < n; i++ {
				if matchCompare(srcs[st.idx].ValueAt(int(vecs[st.idx][i]), st.cols[p.Col.Column]), p.Op, p.Value) {
					want[0], want[1] = append(want[0], vecs[0][i]), append(want[1], vecs[1][i])
				}
			}
			got := [][]int32{slices.Clone(vecs[0]), slices.Clone(vecs[1])}
			f(got, make([]int32, 0, batchSize))
			if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
				t.Fatalf("iter %d %s: kept %d rows, want %d\ngot  %v\nwant %v", iter, p, len(got[0]), len(want[0]), got, want)
			}
		}
	}
}
