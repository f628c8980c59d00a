package optimizer_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// chainDB is three tables t0 ← t1 ← t2, each the parent of the next, and
// a Built over them with no structure.
func chainDB(t *testing.T) (stats.Provider, *engine.Built) {
	t.Helper()
	db := rel.NewDatabase()
	for i := 0; i < 3; i++ {
		tbl := rel.NewTable(fmt.Sprintf("t%d", i), []rel.Column{
			{Name: "ID", Typ: rel.TInt}, {Name: "PID", Typ: rel.TInt}, {Name: "x", Typ: rel.TInt}})
		for r := int64(0); r < 40; r++ {
			tbl.AppendRow([]rel.Value{rel.Int(100*int64(i) + r), rel.Int(100*int64(i-1) + r/2), rel.Int(r % 7)})
		}
		db.Add(tbl)
	}
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return stats.FromDatabase(db), built
}

// TestBranchShapeDoor: the optimizer and both executors take a branch
// of one table, or of two joined by one equi-join, and refuse a branch
// of three tables, of two with no join and of two with two joins, each
// with sqlast.ErrBranchShape. The shape they take beside them plans,
// prepares and runs, identically in both executors.
func TestBranchShapeDoor(t *testing.T) {
	prov, built := chainDB(t)
	col := func(table, column string) sqlast.ColRef { return sqlast.ColRef{Table: table, Column: column} }
	join := func(l, r sqlast.ColRef) sqlast.Pred { return sqlast.Pred{Kind: sqlast.PredJoin, Left: l, Right: r} }
	query := func(from []string, where ...sqlast.Pred) *sqlast.Query {
		id := col("t0", "ID")
		return &sqlast.Query{OrderBy: "ID", Branches: []*sqlast.Select{
			{Items: []sqlast.SelectItem{{Col: &id, As: "ID"}}, From: from, Where: where}}}
	}
	hash := func(outer, inner sqlast.ColRef) optimizer.Join {
		return optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: inner.Table}, OuterCol: outer, InnerCol: inner}
	}
	t1t0 := join(col("t1", "PID"), col("t0", "ID"))
	for _, tc := range []struct {
		name  string
		q     *sqlast.Query
		joins []optimizer.Join
	}{
		{"three tables", query([]string{"t0", "t1", "t2"}, t1t0, join(col("t2", "PID"), col("t1", "ID"))),
			[]optimizer.Join{hash(col("t0", "ID"), col("t1", "PID")), hash(col("t1", "ID"), col("t2", "PID"))}},
		{"two tables, no join", query([]string{"t0", "t1"}),
			[]optimizer.Join{hash(col("t0", "ID"), col("t1", "PID"))}},
		{"two tables, two joins", query([]string{"t0", "t1"}, t1t0, join(col("t1", "x"), col("t0", "x"))),
			[]optimizer.Join{hash(col("t0", "ID"), col("t1", "PID"))}},
	} {
		if _, err := optimizer.New(prov).PlanQuery(tc.q, nil); !errors.Is(err, sqlast.ErrBranchShape) {
			t.Errorf("%s: PlanQuery: %v, want ErrBranchShape", tc.name, err)
		}
		plan := &optimizer.Plan{Query: tc.q, Branches: []*optimizer.Branch{
			{Sel: tc.q.Branches[0], Driver: optimizer.Access{Table: "t0"}, Joins: tc.joins}}}
		if _, err := engine.Prepare(built, plan); !errors.Is(err, sqlast.ErrBranchShape) {
			t.Errorf("%s: Prepare: %v, want ErrBranchShape", tc.name, err)
		}
		if _, err := engine.ExecuteReference(built, plan); !errors.Is(err, sqlast.ErrBranchShape) {
			t.Errorf("%s: ExecuteReference: %v, want ErrBranchShape", tc.name, err)
		}
	}

	plan, err := optimizer.New(prov).PlanQuery(query([]string{"t0", "t1"}, t1t0), nil)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := engine.Prepare(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pp.ExecuteContextWorkers(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ExecuteReference(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) || got.Stats != want.Stats {
		t.Errorf("two-table branch: %d rows %+v, reference %d rows %+v", len(got.Rows), got.Stats, len(want.Rows), want.Stats)
	}
}
