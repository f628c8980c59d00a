package optimizer

import (
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// fakeStats builds a provider with two tables: a parent "movie" (10k
// rows) and a child "actor" (40k rows).
func fakeStats() stats.MapProvider {
	mk := func(name string, rows int64, cols map[string]*stats.ColumnStats, rowBytes float64) *stats.TableStats {
		return &stats.TableStats{Name: name, Rows: rows, RowBytes: rowBytes, Cols: cols}
	}
	intCol := func(count, distinct int64) *stats.ColumnStats {
		return &stats.ColumnStats{Count: count, Distinct: distinct, AvgWidth: 8, Typ: rel.TInt,
			Min: rel.Int(0), Max: rel.Int(distinct)}
	}
	strCol := func(count, distinct int64) *stats.ColumnStats {
		return &stats.ColumnStats{Count: count, Distinct: distinct, AvgWidth: 16, Typ: rel.TString}
	}
	return stats.MapProvider{
		"movie": mk("movie", 10000, map[string]*stats.ColumnStats{
			"ID":    intCol(10000, 10000),
			"PID":   intCol(10000, 1),
			"title": strCol(10000, 10000),
			"year":  intCol(10000, 55),
			"genre": strCol(10000, 20),
		}, 60),
		"actor": mk("actor", 40000, map[string]*stats.ColumnStats{
			"ID":    intCol(40000, 40000),
			"PID":   intCol(40000, 9000),
			"actor": strCol(40000, 2500),
		}, 40),
	}
}

func selectMovie(preds ...sqlast.Pred) *sqlast.Select {
	return &sqlast.Select{
		Items: []sqlast.SelectItem{
			{Col: &sqlast.ColRef{Table: "movie", Column: "ID"}, As: "ID"},
			{Col: &sqlast.ColRef{Table: "movie", Column: "title"}, As: "title"},
		},
		From:  []string{"movie"},
		Where: preds,
	}
}

func joinBranch() *sqlast.Select {
	return &sqlast.Select{
		Items: []sqlast.SelectItem{
			{Col: &sqlast.ColRef{Table: "movie", Column: "ID"}, As: "ID"},
			{Col: &sqlast.ColRef{Table: "actor", Column: "actor"}, As: "actor"},
		},
		From: []string{"movie", "actor"},
		Where: []sqlast.Pred{
			{Kind: sqlast.PredJoin,
				Left:  sqlast.ColRef{Table: "actor", Column: "PID"},
				Right: sqlast.ColRef{Table: "movie", Column: "ID"}},
			{Kind: sqlast.PredCompare, Op: sqlast.OpEq,
				Col:   sqlast.ColRef{Table: "movie", Column: "genre"},
				Value: rel.Str("g")},
		},
	}
}

func TestScanVsSeekOrdering(t *testing.T) {
	o := New(fakeStats())
	q := &sqlast.Query{Branches: []*sqlast.Select{selectMovie(sqlast.Pred{
		Kind: sqlast.PredCompare, Op: sqlast.OpEq,
		Col:   sqlast.ColRef{Table: "movie", Column: "title"},
		Value: rel.Str("x"),
	})}}
	scanCost, err := o.Cost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "i", Table: "movie", Key: []string{"title"}, Include: []string{"ID"}})
	seekCost, err := o.Cost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seekCost >= scanCost {
		t.Errorf("covering seek (%f) not cheaper than scan (%f)", seekCost, scanCost)
	}
	if seekCost > scanCost/20 {
		t.Errorf("selective covering seek should be far cheaper: %f vs %f", seekCost, scanCost)
	}
}

func TestNonCoveringSeekCostsLookups(t *testing.T) {
	o := New(fakeStats())
	// Unselective predicate: year >= 0 matches everything.
	q := &sqlast.Query{Branches: []*sqlast.Select{selectMovie(sqlast.Pred{
		Kind: sqlast.PredCompare, Op: sqlast.OpGe,
		Col:   sqlast.ColRef{Table: "movie", Column: "year"},
		Value: rel.Int(0),
	})}}
	scanCost, _ := o.Cost(q, nil)
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "i", Table: "movie", Key: []string{"year"}})
	plan, err := o.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer must not pick a non-covering seek for an
	// unselective range: random lookups would dwarf the scan.
	if plan.Branches[0].Driver.Kind == AccessSeek {
		t.Errorf("picked non-covering seek for unselective predicate (scan cost %f)", scanCost)
	}
}

func TestJoinMethodSwitchesWithIndex(t *testing.T) {
	o := New(fakeStats())
	q := &sqlast.Query{Branches: []*sqlast.Select{joinBranch()}}
	plan, err := o.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Branches[0].Joins) != 1 || plan.Branches[0].Joins[0].Method != JoinHash {
		t.Errorf("without indexes expected hash join, got %+v", plan.Branches[0].Joins)
	}
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "i", Table: "actor", Key: []string{"PID"}, Include: []string{"actor"}})
	cfg.AddIndex(&physical.Index{Name: "g", Table: "movie", Key: []string{"genre"}, Include: []string{"ID"}})
	plan2, err := o.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := plan2.Branches[0]
	if len(b.Joins) != 1 || b.Joins[0].Method != JoinINL {
		t.Errorf("with PID index expected INL join, got %v", b.Joins[0].Method)
	}
	if b.Cost >= plan.Branches[0].Cost {
		t.Errorf("indexed plan (%f) not cheaper than unindexed (%f)", b.Cost, plan.Branches[0].Cost)
	}
}

func TestViewRewrite(t *testing.T) {
	v := &physical.View{Name: "v", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "genre"}, InnerCols: []string{"actor"}}
	s := joinBranch()
	rs, ok := RewriteOverView(s, v)
	if !ok {
		t.Fatal("rewrite failed")
	}
	if len(rs.From) != 1 || rs.From[0] != "v" {
		t.Errorf("rewritten FROM = %v", rs.From)
	}
	if got := rs.SQL(); !strings.Contains(got, "v.movie__ID") || !strings.Contains(got, "v.actor__actor") {
		t.Errorf("rewritten SQL: %s", got)
	}
	// Missing column: no rewrite.
	v2 := &physical.View{Name: "v2", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID"}, InnerCols: []string{"actor"}}
	if _, ok := RewriteOverView(s, v2); ok {
		t.Error("rewrite should fail when the view lacks genre")
	}
}

func TestViewPlanWins(t *testing.T) {
	o := New(fakeStats())
	q := &sqlast.Query{Branches: []*sqlast.Select{joinBranch()}}
	base, _ := o.Cost(q, nil)
	cfg := &physical.Config{}
	cfg.AddView(&physical.View{Name: "v", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "genre"}, InnerCols: []string{"actor"}})
	plan, err := o.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Branches[0].View == nil {
		t.Error("view plan not chosen")
	}
	if plan.Cost >= base {
		t.Errorf("view plan (%f) not cheaper than base (%f)", plan.Cost, base)
	}
}

func TestPartitionScanCheaper(t *testing.T) {
	o := New(fakeStats())
	// Query touching only 2 of movie's columns.
	q := &sqlast.Query{Branches: []*sqlast.Select{selectMovie()}}
	base, _ := o.Cost(q, nil)
	cfg := &physical.Config{}
	cfg.AddPartition(&physical.VPartition{Table: "movie", Groups: [][]string{
		{"ID", "title"}, {"year", "genre"},
	}})
	part, err := o.Cost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part >= base {
		t.Errorf("partition scan (%f) not cheaper than full scan (%f)", part, base)
	}
}

func TestExistsCosting(t *testing.T) {
	o := New(fakeStats())
	s := selectMovie()
	s.Where = append(s.Where, sqlast.Pred{
		Kind: sqlast.PredExists, Op: sqlast.OpEq, Value: rel.Str("x"),
		Table: "actor", JoinCol: "PID", InnerCol: "actor",
		OuterCol: sqlast.ColRef{Table: "movie", Column: "ID"},
	})
	q := &sqlast.Query{Branches: []*sqlast.Select{s}}
	hashCost, err := o.Cost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "i", Table: "actor", Key: []string{"PID"}})
	idxCost, err := o.Cost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idxCost >= hashCost {
		t.Errorf("indexed exists (%f) not cheaper than hash exists (%f)", idxCost, hashCost)
	}
}

func TestPlanObjects(t *testing.T) {
	o := New(fakeStats())
	cfg := &physical.Config{}
	idx := &physical.Index{Name: "i", Table: "actor", Key: []string{"PID"}, Include: []string{"actor"}}
	cfg.AddIndex(idx)
	cfg.AddIndex(&physical.Index{Name: "g", Table: "movie", Key: []string{"genre"}, Include: []string{"ID", "title"}})
	q := &sqlast.Query{Branches: []*sqlast.Select{joinBranch()}}
	plan, err := o.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	objs := strings.Join(plan.Objects(), " ")
	if !strings.Contains(objs, "idx:actor(PID)") {
		t.Errorf("objects missing actor index: %s", objs)
	}
}

func TestCallsCount(t *testing.T) {
	o := New(fakeStats())
	q := &sqlast.Query{Branches: []*sqlast.Select{selectMovie()}}
	for i := 0; i < 5; i++ {
		if _, err := o.Cost(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if o.Calls() != 5 {
		t.Errorf("Calls = %d", o.Calls())
	}
}

// TestJoinOrderTieDrivesFromFirst: two tables with the same statistics,
// joined column to column, cost the same in either order to the bit, and
// the plan drives from FROM[0], whichever table that is.
func TestJoinOrderTieDrivesFromFirst(t *testing.T) {
	ts := func(name string) *stats.TableStats {
		return &stats.TableStats{Name: name, Rows: 3000, RowBytes: 24, Cols: map[string]*stats.ColumnStats{
			"ID": {Count: 3000, Distinct: 3000, AvgWidth: 8, Typ: rel.TInt},
			"K":  {Count: 3000, Distinct: 700, AvgWidth: 8, Typ: rel.TInt}}}
	}
	o := New(stats.MapProvider{"a": ts("a"), "b": ts("b")})
	for _, from := range [][]string{{"a", "b"}, {"b", "a"}} {
		s := &sqlast.Select{
			Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "a", Column: "ID"}, As: "aID"},
				{Col: &sqlast.ColRef{Table: "b", Column: "ID"}, As: "bID"}},
			From:  from,
			Where: []sqlast.Pred{{Kind: sqlast.PredJoin, Left: col("a", "K"), Right: col("b", "K")}},
		}
		an, err := o.analyse(s)
		if err != nil {
			t.Fatal(err)
		}
		e := orderEnum{o: o, an: an, cfg: &physical.Config{}}
		_, _, rows0, cost0, err0 := e.order(0)
		_, _, rows1, cost1, err1 := e.order(1)
		if err0 != nil || err1 != nil || !sameFloat(cost0, cost1) || !sameFloat(rows0, rows1) {
			t.Fatalf("FROM %v: orders cost %v/%v rows %v/%v (%v, %v); the fixture needs a tie to the bit",
				from, cost0, cost1, rows0, rows1, err0, err1)
		}
		p, err := o.PlanQuery(&sqlast.Query{Branches: []*sqlast.Select{s}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b := p.Branches[0]; b.Driver.Table != from[0] || len(b.Joins) != 1 || b.Joins[0].Inner.Table != from[1] {
			t.Errorf("FROM %v: plan drives %s and joins %v, want FROM[0] driving", from, b.Driver.Table, b.Joins)
		}
	}
}

func TestPermutations(t *testing.T) {
	perms := permutations([]string{"a", "b", "c"})
	if len(perms) != 6 {
		t.Fatalf("permutations = %d", len(perms))
	}
	seen := map[string]bool{}
	for _, p := range perms {
		seen[strings.Join(p, "")] = true
	}
	if len(seen) != 6 {
		t.Errorf("duplicate permutations: %v", perms)
	}
}
