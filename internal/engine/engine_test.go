package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// tinyDB builds a two-table parent/child database by hand.
func tinyDB() *rel.Database {
	db := rel.NewDatabase()
	parent := rel.NewTable("p", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "name", Typ: rel.TString},
		{Name: "score", Typ: rel.TInt, Nullable: true},
	})
	for i := int64(1); i <= 6; i++ {
		score := rel.Int(i * 10)
		if i == 3 {
			score = rel.NullOf(rel.TInt)
		}
		parent.AppendRow([]rel.Value{rel.Int(i), rel.NullOf(rel.TInt), rel.Str("p" + rel.Int(i).String()), score})
	}
	child := rel.NewTable("c", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt},
		{Name: "tag", Typ: rel.TString},
	})
	id := int64(100)
	for i := int64(1); i <= 6; i++ {
		for k := int64(0); k < i%3; k++ {
			child.AppendRow([]rel.Value{rel.Int(id), rel.Int(i), rel.Str("t")})
			id++
		}
	}
	db.Add(parent)
	db.Add(child)
	return db
}

func planFor(t *testing.T, db *rel.Database, q *sqlast.Query, cfg *physical.Config) (*Built, *optimizer.Plan) {
	t.Helper()
	if cfg == nil {
		cfg = &physical.Config{}
	}
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(stats.FromDatabase(db))
	plan, err := opt.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return built, plan
}

func TestExecuteFilterNullSemantics(t *testing.T) {
	// score >= 0 must not match the NULL row.
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "p", Column: "ID"}, As: "ID"}},
		From:  []string{"p"},
		Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
			Col: sqlast.ColRef{Table: "p", Column: "score"}, Value: rel.Int(0)}},
	}}, OrderBy: "ID"}
	built, plan := planFor(t, tinyDB(), q, nil)
	res, err := Execute(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5 (NULL score excluded)", len(res.Rows))
	}
}

// TestExecuteOrderByNullsFirst: ordering by the nullable score, where a
// NULL would sort first, is not document order, so Execute refuses the
// plan with the reference executor's error instead of sorting it.
func TestExecuteOrderByNullsFirst(t *testing.T) {
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "p", Column: "score"}, As: "ID"}},
		From:  []string{"p"},
	}}, OrderBy: "ID"}
	built, plan := planFor(t, tinyDB(), q, nil)
	_, err := Execute(built, plan)
	_, refErr := ExecuteReference(built, plan)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("ORDER BY a nullable column: Execute %v, ExecuteReference %v; want one refusal", err, refErr)
	}
}

// TestOrderByRefusal: the sorted outer union is in document order, so
// both executors accept an ORDER BY only when its position is an INT NOT
// NULL column in every branch the plan runs, views and partition groups
// included, and refuse every other — VARCHAR, FLOAT, a nullable INT, a
// NULL item in one branch, a nullable INT beside an INT NOT NULL — with
// one error, whichever entry point compiles the plan.
func TestOrderByRefusal(t *testing.T) {
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
		{Name: "n", Typ: rel.TInt, Nullable: true},
	})
	for i := int64(1); i <= 8; i++ {
		p.AppendRow([]rel.Value{rel.Int(i), rel.NullOf(rel.TInt), rel.Int(9 - i), rel.Str("s" + rel.Int(i).String()), rel.Float(float64(i) / 2)})
		c.AppendRow([]rel.Value{rel.Int(100 + i), rel.Int(9 - i), rel.NullOf(rel.TInt)})
	}
	db.Add(p)
	db.Add(c)
	cfg := &physical.Config{}
	cfg.AddView(&physical.View{Name: "v", Outer: "p", Inner: "c", OuterCols: []string{"n"}, InnerCols: []string{"ID"}})
	cfg.AddPartition(&physical.VPartition{Table: "p", Groups: [][]string{{"n"}, {"s", "f"}}})
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	branch := func(a optimizer.Access, key *sqlast.ColRef) *optimizer.Branch {
		sel := &sqlast.Select{From: []string{a.Table}, Items: []sqlast.SelectItem{
			{Col: &sqlast.ColRef{Table: a.Table, Column: "ID"}, As: "id"}, {Col: key, As: "k"}}}
		if a.Table == "v" {
			sel.Items[0].Col.Column = "c__ID"
		}
		return &optimizer.Branch{Sel: sel, Driver: a}
	}
	plan := func(brs ...*optimizer.Branch) *optimizer.Plan {
		q := &sqlast.Query{OrderBy: "k"}
		for _, br := range brs {
			q.Branches = append(q.Branches, br.Sel)
		}
		return &optimizer.Plan{Query: q, Branches: brs}
	}
	col := func(tbl, c string) *sqlast.ColRef { return &sqlast.ColRef{Table: tbl, Column: c} }
	scan := func(tbl string, groups ...int) optimizer.Access { return optimizer.Access{Table: tbl, Groups: groups} }
	refused := map[string]*optimizer.Plan{
		"VARCHAR":               plan(branch(scan("p"), col("p", "s"))),
		"FLOAT":                 plan(branch(scan("p"), col("p", "f"))),
		"nullable INT":          plan(branch(scan("p"), col("p", "n"))),
		"NULL item":             plan(branch(scan("p"), col("p", "ID")), branch(scan("c"), nil)),
		"NOT NULL beside null":  plan(branch(scan("p"), col("p", "ID")), branch(scan("c"), col("c", "n"))),
		"nullable view column":  plan(branch(scan("v"), col("v", "p__n"))),
		"nullable group column": plan(branch(scan("p", 0), col("p", "n"))),
	}
	for name, pl := range refused {
		_, perr := Prepare(built, pl)
		_, cerr := built.PreparedContext(context.Background(), pl)
		_, rerr := ExecuteReference(built, pl)
		if perr == nil || cerr == nil || rerr == nil || perr.Error() != cerr.Error() || perr.Error() != rerr.Error() ||
			!strings.Contains(perr.Error(), "INT NOT NULL column in every branch") {
			t.Errorf("%s: Prepare %v, PreparedContext %v, ExecuteReference %v; want one refusal", name, perr, cerr, rerr)
		}
	}
	unordered := plan(branch(scan("p"), col("p", "s")))
	unordered.Query.OrderBy = ""
	accepted := map[string]*optimizer.Plan{
		"two branches":  plan(branch(scan("p"), col("p", "ID")), branch(scan("c"), col("c", "PID"))),
		"view column":   plan(branch(scan("v"), col("v", "c__ID"))),
		"group key":     plan(branch(scan("p", 1), col("p", "ID"))),
		"no ORDER BY":   unordered,
		"zero branches": plan(),
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
		for _, workers := range []int{1, 2} {
			got, err := pp.ExecuteContextWorkers(context.Background(), workers)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			requireIdentical(t, name, got, want)
			requireAppendMatches(t, name, pp, workers, want)
		}
	}
}

func TestExecuteJoinNullPIDSkipped(t *testing.T) {
	// The parent rows have NULL PID; joining p.PID = c.ID must yield
	// nothing rather than matching NULLs.
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "p", Column: "ID"}, As: "ID"}},
		From:  []string{"p", "c"},
		Where: []sqlast.Pred{{Kind: sqlast.PredJoin,
			Left:  sqlast.ColRef{Table: "p", Column: "PID"},
			Right: sqlast.ColRef{Table: "c", Column: "ID"}}},
	}}, OrderBy: "ID"}
	built, plan := planFor(t, tinyDB(), q, nil)
	res, err := Execute(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("NULL join keys matched: %d rows", len(res.Rows))
	}
}

func TestExecuteHashAndINLAgree(t *testing.T) {
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{
			{Col: &sqlast.ColRef{Table: "p", Column: "ID"}, As: "ID"},
			{Col: &sqlast.ColRef{Table: "c", Column: "tag"}, As: "tag"},
		},
		From: []string{"p", "c"},
		Where: []sqlast.Pred{{Kind: sqlast.PredJoin,
			Left:  sqlast.ColRef{Table: "c", Column: "PID"},
			Right: sqlast.ColRef{Table: "p", Column: "ID"}}},
	}}, OrderBy: "ID"}
	db := tinyDB()
	builtHash, planHash := planFor(t, db, q, nil)
	resHash, err := Execute(builtHash, planHash)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "cpid", Table: "c", Key: []string{"PID"}, Include: []string{"tag"}})
	builtINL, planINL := planFor(t, db, q, cfg)
	// Verify the INL path is actually taken.
	if planINL.Branches[0].Joins[0].Method != optimizer.JoinINL {
		t.Skip("optimizer chose hash even with index; nothing to compare")
	}
	resINL, err := Execute(builtINL, planINL)
	if err != nil {
		t.Fatal(err)
	}
	if len(resHash.Rows) != len(resINL.Rows) {
		t.Fatalf("hash %d rows vs INL %d rows", len(resHash.Rows), len(resINL.Rows))
	}
}

func TestExecuteExistsSemantics(t *testing.T) {
	// Parents with at least one child tagged "t", which every child is:
	// i%3 != 0 -> 1,2,4,5 (i=3,6 have zero children).
	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "p", Column: "ID"}, As: "ID"}},
		From:  []string{"p"},
		Where: []sqlast.Pred{{Kind: sqlast.PredExists, Op: sqlast.OpEq, Value: rel.Str("t"),
			Table: "c", JoinCol: "PID", InnerCol: "tag",
			OuterCol: sqlast.ColRef{Table: "p", Column: "ID"}}},
	}}, OrderBy: "ID"}
	built, plan := planFor(t, tinyDB(), q, nil)
	res, err := Execute(built, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("exists rows = %d, want 4", len(res.Rows))
	}
}

func TestBuildRejectsBadStructures(t *testing.T) {
	db := tinyDB()
	cases := []*physical.Config{
		{Indexes: []*physical.Index{{Name: "x", Table: "nope", Key: []string{"ID"}}}},
		{Indexes: []*physical.Index{{Name: "x", Table: "p", Key: []string{"nope"}}}},
		{Indexes: []*physical.Index{{Name: "x", Table: "p", Key: []string{"ID"}, Include: []string{"nope"}}}},
		{Indexes: []*physical.Index{{Name: "x", Table: "p"}}},
		{Indexes: []*physical.Index{{Name: "x", Table: "p", Key: []string{"name", "score"}}}},
		{Views: []*physical.View{{Name: "v", Outer: "nope", Inner: "c", OuterCols: []string{"ID"}, InnerCols: []string{"tag"}}}},
		{Views: []*physical.View{{Name: "v", Outer: "p", Inner: "c", OuterCols: []string{"nope"}, InnerCols: []string{"tag"}}}},
		{Partitions: []*physical.VPartition{{Table: "p", Groups: [][]string{{"nope"}}}}},
	}
	for i, cfg := range cases {
		if _, err := Build(db, cfg); err == nil {
			t.Errorf("case %d: want build error", i)
		}
	}
}

func TestBuiltIndexBytes(t *testing.T) {
	db := tinyDB()
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "x", Table: "p", Key: []string{"score"}, Include: []string{"name"}})
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built.StructBytes <= 0 {
		t.Error("index bytes not accounted")
	}
}

func TestScopeErrors(t *testing.T) {
	sc := newScope()
	sc.add("t", []string{"a", "b"})
	if _, err := sc.pos(sqlast.ColRef{Table: "t", Column: "a"}); err != nil {
		t.Errorf("pos: %v", err)
	}
	if _, err := sc.pos(sqlast.ColRef{Table: "t", Column: "z"}); err == nil {
		t.Error("want error for unknown column")
	}
	if _, err := sc.pos(sqlast.ColRef{Table: "u", Column: "a"}); err == nil {
		t.Error("want error for unknown table")
	}
}
