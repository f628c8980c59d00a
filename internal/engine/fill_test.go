package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// fillDB holds the value shapes a typed fill must get right besides
// plain values: NULLs in every column type on a driver table and on a
// join inner, join keys among them, negative and integral floats, NaN,
// strings that read as numbers, and a string column that is NULL in
// every row (an empty dictionary under a full code vector). g is c's
// child, for plans with two joins.
func fillDB() *rel.Database {
	const np, nc = 150, 260
	p := rel.NewTable("p", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "k", Typ: rel.TInt},
		{Name: "allnull", Typ: rel.TString, Nullable: true},
		{Name: "x", Typ: rel.TInt, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true},
		{Name: "tag", Typ: rel.TString},
	})
	for i := 0; i < np; i++ {
		x := rel.Int(int64(i * 10))
		switch i % 7 {
		case 0:
			x = rel.Int(-7)
		case 1, 3:
			x = rel.NullOf(rel.TInt)
		case 2:
			x = rel.Int(1)
		}
		f := rel.Float(float64(i) / 4)
		switch i % 6 {
		case 0:
			f = rel.Float(float64(-i))
		case 1:
			f = rel.NullOf(rel.TFloat)
		}
		p.AppendRow([]rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), rel.Int(int64(i % 5)),
			rel.NullOf(rel.TString), x, f, rel.Str(fmt.Sprintf("t%d", i%4))})
	}
	c := rel.NewTable("c", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "w", Typ: rel.TString, Nullable: true},
		{Name: "allnull", Typ: rel.TString, Nullable: true},
	})
	c.Parent = "p"
	for i := 0; i < nc; i++ {
		pid := rel.Int(int64(i % np))
		switch i % 11 {
		case 1:
			pid = rel.NullOf(rel.TInt)
		case 2:
			pid = rel.Int(2)
		}
		w := rel.Str(fmt.Sprintf("t%d", i%4))
		switch i % 5 {
		case 3:
			w = rel.NullOf(rel.TString)
		case 4:
			w = rel.Str(fmt.Sprint(i))
		}
		c.AppendRow([]rel.Value{rel.Int(int64(1000 + i)), pid, w, rel.NullOf(rel.TString)})
	}
	g := rel.NewTable("g", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt},
		{Name: "v", Typ: rel.TFloat, Nullable: true},
	})
	g.Parent = "c"
	for i := 0; i < 2*nc; i++ {
		v := rel.Float(float64(i%13) / 2)
		switch i % 9 {
		case 4:
			v = rel.NullOf(rel.TFloat)
		case 7:
			v = rel.Float(math.NaN())
		}
		g.AppendRow([]rel.Value{rel.Int(int64(5000 + i)), rel.Int(int64(1000 + (i*7)%nc)), v})
	}
	db := rel.NewDatabase()
	db.Add(p)
	db.Add(c)
	db.Add(g)
	return db
}

// TestFillMatchesReference runs every table source of the batch
// executor — scan fragments (resident and chunked), a seek driver, hash
// joins, an INL join, and
// zips of partition groups as a driver and as a hash-join inner — over
// fillDB, projecting and filtering on the NULL-bearing and all-NULL
// columns, and wants the reference executor's rows bit for bit. The
// post-join cases filter a join's output with the driver-stage kernels
// over the row ids of the table they read: a string range on the host
// after a child-to-parent join (Q7's third branch), a filter on a
// NULL-bearing column, filters between and after two joins, and an
// OR whose columns lie in two tables, one of them a chunked driver. The
// plans are written by hand so each access path is certain to run. Both
// tables are partitioned, so the zip cases check the claim the executor
// rests on: it fills a zip from the base table, the reference zips the
// materialized group tables (fetchPartition), and the two agree.
func TestFillMatchesReference(t *testing.T) {
	col := func(tbl, c string) *sqlast.ColRef { return &sqlast.ColRef{Table: tbl, Column: c} }
	item := func(tbl, c string) sqlast.SelectItem {
		return sqlast.SelectItem{Col: col(tbl, c), As: tbl + "_" + c}
	}
	cfg := &physical.Config{}
	ixPK := &physical.Index{Name: "ix_p_k", Table: "p", Key: []string{"k"}}
	ixCPID := &physical.Index{Name: "ix_c_pid", Table: "c", Key: []string{"PID"}}
	ixCID := &physical.Index{Name: "ix_c_id", Table: "c", Key: []string{"ID"}}
	cfg.AddIndex(ixPK)
	cfg.AddIndex(ixCPID)
	cfg.AddIndex(ixCID)
	ixGPID := &physical.Index{Name: "ix_g_pid", Table: "g", Key: []string{"PID"}}
	cfg.AddIndex(ixGPID)
	// Every group replicates ID and PID; x and f hold NULLs, allnull an
	// empty dictionary.
	cfg.AddPartition(&physical.VPartition{Table: "p", Groups: [][]string{{"k", "allnull", "x"}, {"f", "tag"}}})
	cfg.AddPartition(&physical.VPartition{Table: "c", Groups: [][]string{{"w"}, {"allnull"}}})

	scanP, scanC := optimizer.Access{Table: "p"}, optimizer.Access{Table: "c"}
	joinPred := sqlast.Pred{Kind: sqlast.PredJoin, Left: *col("c", "PID"), Right: *col("p", "ID")}
	gJoinPred := sqlast.Pred{Kind: sqlast.PredJoin, Left: *col("g", "PID"), Right: *col("c", "ID")}
	pItems := []sqlast.SelectItem{item("p", "ID"), item("p", "allnull"), item("p", "x"), item("p", "f")}
	joinItems := []sqlast.SelectItem{item("p", "ID"), item("p", "x"), item("c", "w"), item("c", "allnull"), item("c", "PID")}

	plan := func(sel *sqlast.Select, driver optimizer.Access, joins ...optimizer.Join) *optimizer.Plan {
		q := &sqlast.Query{Branches: []*sqlast.Select{sel}, OrderBy: sel.Items[0].As}
		return &optimizer.Plan{Query: q, Branches: []*optimizer.Branch{{Sel: sel, Driver: driver, Joins: joins}}}
	}
	seekK := &sqlast.Pred{Kind: sqlast.PredCompare, Op: sqlast.OpGe, Col: *col("p", "k"), Value: rel.Int(2)}
	seekCID := &sqlast.Pred{Kind: sqlast.PredCompare, Op: sqlast.OpLt, Col: *col("c", "ID"), Value: rel.Int(1100)}
	zipP := func(groups ...int) optimizer.Access { return optimizer.Access{Table: "p", Groups: groups} }
	cmpPred := func(tbl, c string, op sqlast.CmpOp, v rel.Value) sqlast.Pred {
		return sqlast.Pred{Kind: sqlast.PredCompare, Op: op, Col: *col(tbl, c), Value: v}
	}
	seekSel := &sqlast.Select{Items: pItems, From: []string{"p"}, Where: []sqlast.Pred{*seekK}}
	seekFedSel := &sqlast.Select{Items: joinItems, From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred, *seekCID}}
	plans := map[string]*optimizer.Plan{
		"scan": plan(&sqlast.Select{Items: pItems, From: []string{"p"}}, scanP),
		"scan-filter-on-nulls": plan(&sqlast.Select{Items: pItems, From: []string{"p"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe, Col: *col("p", "x"), Value: rel.Int(100)}}}, scanP),
		"seek-driver": plan(seekSel,
			optimizer.Access{Table: "p", Kind: optimizer.AccessSeek, Index: ixPK, SeekPred: &seekSel.Where[0]}),
		"hash-join": plan(&sqlast.Select{Items: joinItems, From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred,
			{Kind: sqlast.PredCompare, Op: sqlast.OpNe, Col: *col("c", "w"), Value: rel.Str("t1")}}}, scanP,
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c"},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")}),
		"zip-driver-kernels": plan(&sqlast.Select{Items: []sqlast.SelectItem{item("p", "ID"), item("p", "allnull"), item("p", "x"), item("p", "PID")},
			From: []string{"p"}, Where: []sqlast.Pred{cmpPred("p", "k", sqlast.OpGe, rel.Int(1)), cmpPred("p", "x", sqlast.OpGe, rel.Int(100))}}, zipP(0)),
		"zip-two-groups": plan(&sqlast.Select{Items: append(slices.Clip(pItems), item("p", "tag"), item("p", "k")),
			From: []string{"p"}, Where: []sqlast.Pred{cmpPred("p", "tag", sqlast.OpNe, rel.Str("t2"))}}, zipP(0, 1)),
		"zip-hash-join-inner": plan(&sqlast.Select{Items: joinItems, From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred,
			cmpPred("c", "w", sqlast.OpNe, rel.Str("t1"))}}, scanP,
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c", Groups: []int{0, 1}},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")}),
		"zip-driver-zip-inner": plan(&sqlast.Select{Items: []sqlast.SelectItem{item("p", "ID"), item("p", "f"), item("c", "w"), item("c", "ID")},
			From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred, cmpPred("p", "f", sqlast.OpLt, rel.Float(30))}}, zipP(1),
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c", Groups: []int{0}},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")}),
		"inl-join": plan(&sqlast.Select{Items: joinItems, From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred}}, scanP,
			optimizer.Join{Method: optimizer.JoinINL, Inner: optimizer.Access{Table: "c", Kind: optimizer.AccessSeek, Index: ixCPID},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")}),
		"post-join-string-range-on-host": plan(&sqlast.Select{Items: []sqlast.SelectItem{item("c", "ID"), item("p", "tag"), item("p", "ID"), item("c", "w")},
			From: []string{"c", "p"}, Where: []sqlast.Pred{joinPred, cmpPred("p", "tag", sqlast.OpGe, rel.Str("t2"))}}, scanC,
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "p"},
				OuterCol: *col("c", "PID"), InnerCol: *col("p", "ID")}),
		"post-join-on-nulls": plan(&sqlast.Select{Items: joinItems, From: []string{"p", "c"}, Where: []sqlast.Pred{joinPred,
			cmpPred("c", "w", sqlast.OpGe, rel.Str("t1")), cmpPred("c", "PID", sqlast.OpLe, rel.Int(120))}}, scanP,
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c"},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")}),
		"two-joins-filter-between": plan(&sqlast.Select{Items: []sqlast.SelectItem{item("p", "ID"), item("c", "w"), item("g", "v"), item("g", "ID"), {As: "none"}},
			From: []string{"p", "c", "g"}, Where: []sqlast.Pred{joinPred, gJoinPred,
				cmpPred("c", "w", sqlast.OpNe, rel.Str("t1")), cmpPred("g", "v", sqlast.OpLt, rel.Float(4))}}, scanP,
			optimizer.Join{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: "c"},
				OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")},
			optimizer.Join{Method: optimizer.JoinINL, Inner: optimizer.Access{Table: "g", Kind: optimizer.AccessSeek, Index: ixGPID},
				OuterCol: *col("c", "ID"), InnerCol: *col("g", "PID")}),
	}

	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 64
	for _, chunked := range []bool{false, true} {
		db := fillDB()
		built, err := Build(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if chunked {
			built.SetScanSource("p", newSliceSource(t, db.Table("p"), 64))
			built.SetScanSource("c", newSliceSource(t, db.Table("c"), 64))
		}
		for name, pl := range plans {
			label := fmt.Sprintf("chunked=%v %s", chunked, name)
			want, err := ExecuteReference(built, pl)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s: the reference returns no rows; the fixture lost its point", label)
			}
			pp, err := Prepare(built, pl)
			if err != nil {
				t.Fatalf("%s: prepare: %v", label, err)
			}
			for _, workers := range []int{1, 3} {
				got, err := pp.ExecuteContextWorkers(context.Background(), workers)
				if err != nil {
					t.Fatalf("%s workers %d: %v", label, workers, err)
				}
				requireIdentical(t, label, got, want)
			}
			if pb := pp.branches[0]; name == "zip-driver-kernels" && (len(pb.kernPreds) != 2 || len(pb.ops) != 0) {
				t.Errorf("%s: %d kernels and %d pipeline operators; both driver-stage predicates should be kernels", label, len(pb.kernPreds), len(pb.ops))
			}
		}
		// A join on a zip of c and a join on c itself have one build
		// side: c's PID column, cached once ("p.ID" is the child-to-parent
		// joins').
		if keys := built.CacheKeys(); fmt.Sprint(keys) != "[t:c|c:PID t:p|c:ID]" {
			t.Errorf("chunked=%v: join-table cache holds %v", chunked, keys)
		}
		// A hash join's build side is a scan: the optimizer never feeds
		// one from a seek, and Prepare refuses a plan that does.
		seekFed := plan(seekFedSel, scanP, optimizer.Join{Method: optimizer.JoinHash,
			Inner:    optimizer.Access{Table: "c", Kind: optimizer.AccessSeek, Index: ixCID, SeekPred: &seekFedSel.Where[1]},
			OuterCol: *col("p", "ID"), InnerCol: *col("c", "PID")})
		if _, err := Prepare(built, seekFed); err == nil || !strings.Contains(err.Error(), "fed by a seek") {
			t.Errorf("chunked=%v: prepare of a seek-fed hash join: %v, want a refusal", chunked, err)
		}
		// A zip holds the columns of the groups its access names and no
		// others, for both executors.
		outside := plan(&sqlast.Select{Items: []sqlast.SelectItem{item("p", "ID"), item("p", "f")}, From: []string{"p"}}, zipP(0))
		if _, err := Prepare(built, outside); err == nil || !strings.Contains(err.Error(), "column p.f not in scope") {
			t.Errorf("prepare of a plan reading p.f from a zip of group 0: %v", err)
		}
		if _, err := ExecuteReference(built, outside); err == nil || !strings.Contains(err.Error(), "column p.f not in scope") {
			t.Errorf("reference run of a plan reading p.f from a zip of group 0: %v", err)
		}
		if _, err := Prepare(built, plan(&sqlast.Select{Items: pItems[:1], From: []string{"p"}}, zipP(2))); err == nil {
			t.Error("prepare over partition group 2 of p, which p's partition does not have, succeeded")
		}
	}
}
