package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// TestPlanShapeRefusal: both executors run only the plan shapes
// translate, the optimizer and physdesign emit, and refuse every other
// with one error, whichever entry point compiles the plan: a predicate
// kind sqlast does not define (the OR list it once had), an EXISTS
// without a value column, an OR-or-EXISTS reading a second table, a
// non-NULL literal typed unlike its column in each place a literal meets
// one, and a seek that names partition groups, seeks by <>, has no
// predicate or seeks off its index's leading column. Before the refusal
// a seek naming groups ran as a full partition scan and a <> seek as >=
// in both executors, which agreed on the wrong rows. The shapes the
// stack does emit beside them still run, identically in both executors.
func TestPlanShapeRefusal(t *testing.T) {
	db := rel.NewDatabase()
	p := rel.NewTable("p", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "n", Typ: rel.TInt, Nullable: true},
		{Name: "s", Typ: rel.TString},
		{Name: "f", Typ: rel.TFloat},
	})
	c := rel.NewTable("c", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt},
		{Name: "w", Typ: rel.TString},
	})
	for i := int64(1); i <= 8; i++ {
		p.AppendRow([]rel.Value{rel.Int(i), rel.NullOf(rel.TInt), rel.Int(i % 4), rel.Str("s" + rel.Int(i%3).String()), rel.Float(float64(i) / 2)})
		c.AppendRow([]rel.Value{rel.Int(100 + i), rel.Int(9 - i), rel.Str("w" + rel.Int(i%2).String())})
	}
	db.Add(p)
	db.Add(c)
	ixN := &physical.Index{Name: "ix_p_n", Table: "p", Key: []string{"n"}}
	ixS := &physical.Index{Name: "ix_p_s", Table: "p", Key: []string{"s"}}
	cfg := &physical.Config{}
	cfg.AddIndex(ixN)
	cfg.AddIndex(ixS)
	cfg.AddPartition(&physical.VPartition{Table: "p", Groups: [][]string{{"n"}, {"s", "f"}}})
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	col := func(tbl, c string) sqlast.ColRef { return sqlast.ColRef{Table: tbl, Column: c} }
	cmp := func(c sqlast.ColRef, op sqlast.CmpOp, v rel.Value) sqlast.Pred {
		return sqlast.Pred{Kind: sqlast.PredCompare, Op: op, Col: c, Value: v}
	}
	exists := func(kind sqlast.PredKind, v rel.Value, inner string, cols ...sqlast.ColRef) sqlast.Pred {
		return sqlast.Pred{Kind: kind, Op: sqlast.OpEq, Value: v, Cols: cols,
			Table: "c", JoinCol: "PID", InnerCol: inner, OuterCol: col("p", "ID")}
	}
	// plan is one branch over p, ordered by its ID, with the given WHERE
	// and driver; seekPred names the conjunct a seek driver applies.
	plan := func(driver optimizer.Access, seekPred int, where ...sqlast.Pred) *optimizer.Plan {
		id := col("p", "ID")
		sel := &sqlast.Select{Items: []sqlast.SelectItem{{Col: &id, As: "id"}}, From: []string{"p"}, Where: where}
		if seekPred >= 0 {
			driver.SeekPred = &sel.Where[seekPred]
		}
		return &optimizer.Plan{Query: &sqlast.Query{Branches: []*sqlast.Select{sel}, OrderBy: "id"},
			Branches: []*optimizer.Branch{{Sel: sel, Driver: driver}}}
	}
	scan := optimizer.Access{Table: "p"}
	seek := func(idx *physical.Index, groups ...int) optimizer.Access {
		return optimizer.Access{Table: "p", Kind: optimizer.AccessSeek, Index: idx, Groups: groups}
	}
	crossTable := plan(scan, -1, sqlast.Pred{Kind: sqlast.PredJoin, Left: col("c", "PID"), Right: col("p", "ID")},
		exists(sqlast.PredOrExists, rel.Str("w1"), "w", col("c", "w")))
	crossTable.Query.Branches[0].From = []string{"p", "c"}
	crossTable.Branches[0].Joins = []optimizer.Join{{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c"},
		OuterCol: col("p", "ID"), InnerCol: col("c", "PID")}}

	refused := []struct {
		name, want string
		plan       *optimizer.Plan
	}{
		{"OR list (a kind sqlast does not define)", "which sqlast does not define",
			plan(scan, -1, sqlast.Pred{Kind: sqlast.PredOrExists + 1, Op: sqlast.OpEq, Value: rel.Str("s1"), Cols: []sqlast.ColRef{col("p", "s")}})},
		{"bare EXISTS", "has no value column", plan(scan, -1, exists(sqlast.PredExists, rel.Str("w1"), ""))},
		{"bare OR-or-EXISTS", "has no value column", plan(scan, -1, exists(sqlast.PredOrExists, rel.Str("w1"), "", col("p", "s")))},
		{"OR-or-EXISTS over two tables", "reads its outer column's table alone", crossTable},
		{"string literal, INT column", "a literal has its column's type", plan(scan, -1, cmp(col("p", "n"), sqlast.OpGe, rel.Str("2")))},
		{"INT literal, FLOAT column", "a literal has its column's type", plan(scan, -1, cmp(col("p", "f"), sqlast.OpLt, rel.Int(2)))},
		{"FLOAT literal, INT column", "a literal has its column's type", plan(scan, -1, cmp(col("p", "n"), sqlast.OpEq, rel.Float(1)))},
		{"INT literal, VARCHAR column", "a literal has its column's type", plan(scan, -1, cmp(col("p", "s"), sqlast.OpEq, rel.Int(1)))},
		{"INT literal, EXISTS value column", "a literal has its column's type", plan(scan, -1, exists(sqlast.PredExists, rel.Int(1), "w"))},
		{"INT literal, occurrence column", "a literal has its column's type",
			plan(scan, -1, exists(sqlast.PredOrExists, rel.Int(1), "ID", col("p", "s")))},
		{"off-type literal in a partition group", "a literal has its column's type",
			plan(optimizer.Access{Table: "p", Groups: []int{1}}, -1, cmp(col("p", "s"), sqlast.OpEq, rel.Float(1)))},
		{"seek naming partition groups", "names partition groups", plan(seek(ixN, 0), 0, cmp(col("p", "n"), sqlast.OpEq, rel.Int(1)))},
		{"<> seek", "a seek applies", plan(seek(ixN), 0, cmp(col("p", "n"), sqlast.OpNe, rel.Int(1)))},
		{"seek without predicate", "without predicate", plan(seek(ixN), -1)},
		{"seek off its index's lead", "not on the leading column", plan(seek(ixS), 0, cmp(col("p", "n"), sqlast.OpEq, rel.Int(1)))},
		{"off-type seek literal", "a literal has its column's type", plan(seek(ixS), 0, cmp(col("p", "s"), sqlast.OpEq, rel.Int(1)))},
	}
	for _, tc := range refused {
		_, perr := Prepare(built, tc.plan)
		_, cerr := built.PreparedContext(context.Background(), tc.plan)
		_, rerr := ExecuteReference(built, tc.plan)
		if perr == nil || cerr == nil || rerr == nil || perr.Error() != cerr.Error() || perr.Error() != rerr.Error() ||
			!strings.Contains(perr.Error(), tc.want) {
			t.Errorf("%s: Prepare %v, PreparedContext %v, ExecuteReference %v; want one refusal mentioning %q",
				tc.name, perr, cerr, rerr, tc.want)
		}
	}

	accepted := map[string]*optimizer.Plan{
		"NULL literal of another type": plan(scan, -1, cmp(col("p", "s"), sqlast.OpEq, rel.NullOf(rel.TInt))),
		"EXISTS":                       plan(scan, -1, exists(sqlast.PredExists, rel.Str("w1"), "w")),
		"OR-or-EXISTS on one table":    plan(scan, -1, exists(sqlast.PredOrExists, rel.Str("w0"), "w", col("p", "s"))),
		"= seek":                       plan(seek(ixN), 0, cmp(col("p", "n"), sqlast.OpEq, rel.Int(1))),
		"< seek on a string lead":      plan(seek(ixS), 0, cmp(col("p", "s"), sqlast.OpLt, rel.Str("s2"))),
		"partition scan":               plan(optimizer.Access{Table: "p", Groups: []int{1}}, -1, cmp(col("p", "s"), sqlast.OpNe, rel.Str("s1"))),
	}
	for name, pl := range accepted {
		want, err := ExecuteReference(built, pl)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		pp, err := built.PreparedContext(context.Background(), pl)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		got, err := pp.ExecuteContextWorkers(context.Background(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireIdentical(t, name, got, want)
	}
}
