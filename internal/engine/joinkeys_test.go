package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// TestJoinKeysMustBeInt: a join or an EXISTS matches INT keys alone, so
// one whose key columns are not both INT — an INT column joined to a
// VARCHAR or a FLOAT column from either side, by hash join or by an INL
// join over an index on the VARCHAR column, or an EXISTS whose inner
// join column or outer column is a VARCHAR — is refused by Prepare and
// by ExecuteReference with one error, as is an INL join whose index
// leads on another column than its key. An INT-to-INT join and EXISTS
// over the same tables run and agree.
func TestJoinKeysMustBeInt(t *testing.T) {
	h := rel.NewTable("h", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "s", Typ: rel.TString}})
	for i := 0; i < 4; i++ {
		h.AppendRow([]rel.Value{rel.Int(int64(i)), rel.Str(fmt.Sprint(i))})
	}
	k := rel.NewTable("k", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "PID", Typ: rel.TInt},
		{Name: "ref", Typ: rel.TString}, {Name: "f", Typ: rel.TFloat}})
	for i := 0; i < 6; i++ {
		k.AppendRow([]rel.Value{rel.Int(int64(10 + i)), rel.Int(int64(i % 4)), rel.Str(fmt.Sprint(i % 4)), rel.Float(float64(i % 4))})
	}
	db := rel.NewDatabase()
	db.Add(h)
	db.Add(k)
	ixRef := &physical.Index{Name: "ix_k_ref", Table: "k", Key: []string{"ref"}}
	built, err := Build(db, &physical.Config{Indexes: []*physical.Index{ixRef}})
	if err != nil {
		t.Fatal(err)
	}
	col := func(tbl, c string) sqlast.ColRef { return sqlast.ColRef{Table: tbl, Column: c} }
	items := []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "h", Column: "ID"}, As: "h_ID"}, {Col: &sqlast.ColRef{Table: "k", Column: "ID"}, As: "k_ID"}}
	join := func(method optimizer.JoinMethod, driver, inner string, outer, innerCol sqlast.ColRef) *optimizer.Plan {
		sel := &sqlast.Select{Items: items, From: []string{"h", "k"},
			Where: []sqlast.Pred{{Kind: sqlast.PredJoin, Left: outer, Right: innerCol}}}
		a := optimizer.Access{Table: inner}
		if method == optimizer.JoinINL {
			a = optimizer.Access{Table: inner, Kind: optimizer.AccessSeek, Index: ixRef}
		}
		return &optimizer.Plan{Query: &sqlast.Query{Branches: []*sqlast.Select{sel}}, Branches: []*optimizer.Branch{{Sel: sel,
			Driver: optimizer.Access{Table: driver},
			Joins:  []optimizer.Join{{Method: method, Inner: a, OuterCol: outer, InnerCol: innerCol}}}}}
	}
	exists := func(joinCol string, outer sqlast.ColRef) *optimizer.Plan {
		sel := &sqlast.Select{Items: items[:1], From: []string{"h"}, Where: []sqlast.Pred{{Kind: sqlast.PredExists,
			Op: sqlast.OpGe, Value: rel.Int(12), Table: "k", JoinCol: joinCol, OuterCol: outer, InnerCol: "ID"}}}
		return &optimizer.Plan{Query: &sqlast.Query{Branches: []*sqlast.Select{sel}},
			Branches: []*optimizer.Branch{{Sel: sel, Driver: optimizer.Access{Table: "h"}}}}
	}
	hash, inl := optimizer.JoinHash, optimizer.JoinINL
	for name, c := range map[string]struct {
		plan *optimizer.Plan
		want string // the refusal, "" for a plan that runs
	}{
		"varchar-on-the-build-side": {join(hash, "h", "k", col("h", "ID"), col("k", "ref")), "join key k.ref is VARCHAR"},
		"varchar-on-the-probe-side": {join(hash, "k", "h", col("k", "ref"), col("h", "ID")), "join key k.ref is VARCHAR"},
		"float-on-the-build-side":   {join(hash, "h", "k", col("h", "ID"), col("k", "f")), "join key k.f is FLOAT"},
		"float-on-the-probe-side":   {join(hash, "k", "h", col("k", "f"), col("h", "ID")), "join key k.f is FLOAT"},
		"varchar-on-both-sides":     {join(hash, "h", "k", col("h", "s"), col("k", "ref")), "join key h.s is VARCHAR"},
		"inl-into-a-varchar-index":  {join(inl, "h", "k", col("h", "ID"), col("k", "ref")), "join key k.ref is VARCHAR"},
		"inl-index-on-another-col":  {join(inl, "h", "k", col("h", "ID"), col("k", "PID")), "INL index ix_k_ref leads on ref"},
		"exists-varchar-join-col":   {exists("ref", col("h", "ID")), "join key k.ref is VARCHAR"},
		"exists-varchar-outer-col":  {exists("PID", col("h", "s")), "join key h.s is VARCHAR"},
		"int-join":                  {join(hash, "k", "h", col("k", "PID"), col("h", "ID")), ""},
		"int-exists":                {exists("PID", col("h", "ID")), ""},
	} {
		_, perr := Prepare(built, c.plan)
		ref, rerr := ExecuteReference(built, c.plan)
		if c.want == "" {
			if perr != nil || rerr != nil {
				t.Fatalf("%s: prepare %v, reference %v", name, perr, rerr)
			}
			got, err := Execute(built, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("%s: no rows; the fixture lost its point", name)
			}
			requireIdentical(t, name, got, ref)
			continue
		}
		if perr == nil || rerr == nil || perr.Error() != rerr.Error() || !strings.Contains(perr.Error(), c.want) {
			t.Errorf("%s: prepare %v, reference %v; want one error with %q", name, perr, rerr, c.want)
		}
	}
}

// TestViewMatchesJoin: a materialized view holds exactly the rows of the
// hash join it replaces — the inner table driving, each row joined to
// every outer row whose ID equals its PID, in document (row id) order —
// on fillDB, whose child PIDs hold NULLs, and on a fixture whose outer
// IDs repeat and whose child PIDs include 9, which joins no ID, and 1,
// which joins both outer rows with ID 1.
func TestViewMatchesJoin(t *testing.T) {
	h := rel.NewTable("h", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "name", Typ: rel.TString}})
	for i, id := range []int64{0, 1, 1, 2} {
		h.AppendRow([]rel.Value{rel.Int(id), rel.Str(fmt.Sprintf("h%d", i))})
	}
	k := rel.NewTable("k", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "PID", Typ: rel.TInt, Nullable: true}, {Name: "v", Typ: rel.TString}})
	for i, pid := range []rel.Value{rel.Int(9), rel.Int(1), rel.Int(1), rel.NullOf(rel.TInt), rel.Int(2), rel.Int(7), rel.Int(0)} {
		k.AppendRow([]rel.Value{rel.Int(int64(10 + i)), pid, rel.Str(fmt.Sprintf("k%d", i))})
	}
	dups := rel.NewDatabase()
	dups.Add(h)
	dups.Add(k)
	cases := []struct {
		name string
		db   *rel.Database
		view *physical.View
		rows int
	}{
		{"fillDB", fillDB(), &physical.View{Name: "v_pc", Outer: "p", Inner: "c",
			OuterCols: []string{"ID", "x", "tag"}, InnerCols: []string{"ID", "PID", "w"}}, 0},
		{"duplicate-ids", dups, &physical.View{Name: "v_hk", Outer: "h", Inner: "k",
			OuterCols: []string{"ID", "name"}, InnerCols: []string{"ID", "PID", "v"}}, 6},
	}
	for _, tc := range cases {
		v := tc.view
		built, err := Build(tc.db, &physical.Config{Views: []*physical.View{v}})
		if err != nil {
			t.Fatal(err)
		}
		var items []sqlast.SelectItem
		for _, c := range v.OuterCols {
			items = append(items, sqlast.SelectItem{Col: &sqlast.ColRef{Table: v.Outer, Column: c}, As: v.Outer + "__" + c})
		}
		for _, c := range v.InnerCols {
			items = append(items, sqlast.SelectItem{Col: &sqlast.ColRef{Table: v.Inner, Column: c}, As: v.Inner + "__" + c})
		}
		pidCol, idCol := sqlast.ColRef{Table: v.Inner, Column: rel.PIDColumn}, sqlast.ColRef{Table: v.Outer, Column: rel.IDColumn}
		sel := &sqlast.Select{Items: items, From: []string{v.Inner, v.Outer},
			Where: []sqlast.Pred{{Kind: sqlast.PredJoin, Left: pidCol, Right: idCol}}}
		plan := &optimizer.Plan{Query: &sqlast.Query{Branches: []*sqlast.Select{sel}}, Branches: []*optimizer.Branch{{
			Sel: sel, Driver: optimizer.Access{Table: v.Inner},
			Joins: []optimizer.Join{{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: v.Outer}, OuterCol: pidCol, InnerCol: idCol}}}}}
		want, err := ExecuteReference(built, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || tc.rows > 0 && len(want.Rows) != tc.rows {
			t.Fatalf("%s: the join returns %d rows; the fixture lost its point", tc.name, len(want.Rows))
		}
		vt := built.ViewTable(v.Name)
		requireIdentical(t, tc.name, &Result{Cols: want.Cols, Rows: vt.Rows(), Stats: want.Stats}, want)
	}
}
