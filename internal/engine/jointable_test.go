package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// chainAll collects the build positions a probe of v joins.
func chainAll(jt *joinTable, v rel.Value) []int32 {
	var out []int32
	jt.probe(v, func(m int32) { out = append(out, m) })
	return out
}

// TestJoinTableDenseMatchesMap builds the dense and the map arm of an
// int-keyed join table over the same keys and wants the same chains
// from both — each the build positions holding the probe's key in
// reverse build order, the order the reference executor emits — for
// every key present and for probes below lo, above hi, at the int64
// extremes, and NULL. buildJoinTable must pick the dense arm up to a
// span of 8 × rows and the map arm past it, and the map arm for keys at
// both extremes, whose span only uint64 holds.
func TestJoinTableDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(engineTestSeed(t)))
	ints := func(ks ...int64) []rel.Value {
		vs := make([]rel.Value, len(ks))
		for i, k := range ks {
			vs[i] = rel.Int(k)
		}
		return vs
	}
	dupHeavy := make([]rel.Value, 600)
	for i := range dupHeavy {
		if rng.Intn(9) == 0 {
			dupHeavy[i] = rel.NullOf(rel.TInt)
		} else {
			dupHeavy[i] = rel.Int(100 + rng.Int63n(12))
		}
	}
	spanAt := func(n int, span int64) []rel.Value {
		vs := ints(0, span)
		for len(vs) < n {
			vs = append(vs, rel.Int(rng.Int63n(span+1)))
		}
		return vs
	}
	const n = 50
	cases := []struct {
		name  string
		keys  []rel.Value
		dense bool // the arm buildJoinTable picks
	}{
		{"duplicate-heavy", dupHeavy, true},
		{"near-min", ints(math.MinInt64, math.MinInt64+3, math.MinInt64, math.MinInt64+1), true},
		{"near-max", ints(math.MaxInt64, math.MaxInt64-2, math.MaxInt64, math.MaxInt64-7), true},
		{"both-extremes", ints(math.MaxInt64, 0, math.MinInt64, math.MaxInt64, -1), false},
		{"span-8x-rows", spanAt(n, 8*n), true},
		{"span-just-above-8x-rows", spanAt(n, 8*n+1), false},
		{"all-null", []rel.Value{rel.NullOf(rel.TInt), rel.NullOf(rel.TInt)}, true},
		{"empty", nil, true},
	}
	for _, tc := range cases {
		tb := rel.NewTable("k", []rel.Column{{Name: "k", Typ: rel.TInt, Nullable: true}})
		for _, v := range tc.keys {
			tb.AppendRow([]rel.Value{v})
		}
		jt := buildJoinTable(tb, 0, true)
		if !jt.intKeys || (jt.dense != nil) != tc.dense {
			t.Fatalf("%s: intKeys %v, dense arm %v, want dense %v", tc.name, jt.intKeys, jt.dense != nil, tc.dense)
		}
		vals, nulls, _ := tb.IntCol(0)
		lo, hi := intSpan(vals, nulls)
		arms := []*joinTable{buildIntJoinTable(vals, nulls, lo, hi, false)}
		if uint64(hi)-uint64(lo) <= 8*uint64(len(tc.keys)) {
			arms = append(arms, buildIntJoinTable(vals, nulls, lo, hi, true))
		}
		probes := []rel.Value{rel.Int(lo - 1), rel.Int(hi + 1), rel.Int(math.MinInt64), rel.Int(math.MaxInt64), rel.NullOf(rel.TInt)}
		for _, v := range tc.keys {
			if !v.Null {
				probes = append(probes, v)
			}
		}
		for _, p := range probes {
			var want []int32
			for i := len(tc.keys) - 1; i >= 0 && !p.Null; i-- {
				if v := tc.keys[i]; !v.Null && v.I == p.I {
					want = append(want, int32(i))
				}
			}
			for _, arm := range append(arms, jt) {
				if got := chainAll(arm, p); !slices.Equal(got, want) {
					t.Fatalf("%s: dense=%v probe %#v: chain %v, want %v", tc.name, arm.dense != nil, p, got, want)
				}
			}
		}
		if len(arms) == 2 && !slices.Equal(arms[0].next, arms[1].next) {
			t.Fatalf("%s: the arms chain differently: %v vs %v", tc.name, arms[0].next, arms[1].next)
		}
	}
}

// TestJoinKeysMatchByStringForm: a join matches two cells when their
// string forms are equal, in both executors and from either side. The
// arm comes from the declared types: an INT column joined to a VARCHAR
// or a FLOAT column keys by string, so the string "1" and the float 1
// join ID 1, while "zz", "03", 0.5 and -0 (which renders "-0") join no
// ID. The INT ID column's join table is then cached apart from the one
// an INT-to-INT join keys by int.
func TestJoinKeysMatchByStringForm(t *testing.T) {
	h := rel.NewTable("h", []rel.Column{{Name: "ID", Typ: rel.TInt}})
	for i := 0; i < 4; i++ {
		h.AppendRow([]rel.Value{rel.Int(int64(i))})
	}
	k := rel.NewTable("k", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "ref", Typ: rel.TString, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true}})
	refs := []rel.Value{rel.Str("zz"), rel.Str("1"), rel.Str("2"), rel.NullOf(rel.TString), rel.Str("03"), rel.Str("3")}
	fs := []rel.Value{rel.Float(0.5), rel.Float(1), rel.Float(2), rel.NullOf(rel.TFloat), rel.Float(math.Copysign(0, -1)), rel.Float(3)}
	for i := range refs {
		k.AppendRow([]rel.Value{rel.Int(int64(10 + i)), refs[i], fs[i]})
	}
	db := rel.NewDatabase()
	db.Add(h)
	db.Add(k)
	built, err := Build(db, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := func(tbl, c string) sqlast.ColRef { return sqlast.ColRef{Table: tbl, Column: c} }
	items := []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "h", Column: "ID"}, As: "h_ID"}, {Col: &sqlast.ColRef{Table: "k", Column: "ID"}, As: "k_ID"}}
	plan := func(key, driver, inner string, outer, innerCol sqlast.ColRef) *optimizer.Plan {
		sel := &sqlast.Select{Items: items, From: []string{"h", "k"},
			Where: []sqlast.Pred{{Kind: sqlast.PredJoin, Left: col("k", key), Right: col("h", "ID")}}}
		q := &sqlast.Query{Branches: []*sqlast.Select{sel}, OrderBy: "h_ID"}
		return &optimizer.Plan{Query: q, Branches: []*optimizer.Branch{{Sel: sel, Driver: optimizer.Access{Table: driver},
			Joins: []optimizer.Join{{Method: optimizer.JoinHash, Inner: optimizer.Access{Table: inner}, OuterCol: outer, InnerCol: innerCol}}}}}
	}
	const want = "[[1 11] [2 12] [3 15]]"
	for name, pl := range map[string]*optimizer.Plan{
		"varchar-on-the-build-side": plan("ref", "h", "k", col("h", "ID"), col("k", "ref")),
		"varchar-on-the-probe-side": plan("ref", "k", "h", col("k", "ref"), col("h", "ID")),
		"float-on-the-build-side":   plan("f", "h", "k", col("h", "ID"), col("k", "f")),
		"float-on-the-probe-side":   plan("f", "k", "h", col("k", "f"), col("h", "ID")),
	} {
		ref, err := ExecuteReference(built, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(built, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{ref, got} {
			if s := fmt.Sprint(res.Rows); s != want {
				t.Errorf("%s: rows %s, want %s", name, s, want)
			}
		}
		requireIdentical(t, name, got, ref)
	}
	if keys := built.CacheKeys(); fmt.Sprint(keys) != "[t:h|c:ID|str t:k|c:f t:k|c:ref]" {
		t.Errorf("join-table cache holds %v", keys)
	}
}

// TestViewMatchesJoin: a materialized view holds exactly the rows of the
// hash join it replaces — the inner table driving, each row joined to
// every outer row its PID matches by string form, in the join table's
// chain order — on fillDB, whose child PIDs hold NULLs, and on a
// fixture whose outer IDs repeat and whose child PIDs include 9, which
// joins no ID, and 1, which joins both outer rows with ID 1.
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
