package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// encodeRow is the byte target's test encoder: every field of every
// value, so two rows encode alike only when they are bit-identical, and
// a row terminator, so the boundaries between rows show.
func encodeRow(dst []byte, row []rel.Value) []byte {
	for _, v := range row {
		dst = append(dst, byte(v.Typ))
		if v.Null {
			dst = append(dst, 'n')
		}
		dst = binary.AppendVarint(dst, v.I)
		dst = binary.AppendUvarint(dst, math.Float64bits(v.F))
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return append(dst, '|')
}

// appendPrefix is what the byte target's caller has already written;
// AppendRows must append after it, never over it.
const appendPrefix = "prefix:"

// requireAppendMatches runs plan on pp through AppendRows and checks the
// bytes, the row count and the stats against encoding want's rows in
// order with the same encoder.
func requireAppendMatches(t *testing.T, label string, pp *PreparedPlan, workers int, want *Result) {
	t.Helper()
	encoded := []byte(appendPrefix)
	for _, row := range want.Rows {
		encoded = encodeRow(encoded, row)
	}
	got, n, st, err := pp.AppendRows(context.Background(), workers, []byte(appendPrefix), encodeRow)
	if err != nil {
		t.Fatalf("%s workers %d: AppendRows: %v", label, workers, err)
	}
	if n != len(want.Rows) || st != want.Stats {
		t.Fatalf("%s workers %d: %d rows, stats %+v; want %d rows, stats %+v", label, workers, n, st, len(want.Rows), want.Stats)
	}
	if !bytes.Equal(got, encoded) {
		i := 0
		for i < len(got) && i < len(encoded) && got[i] == encoded[i] {
			i++
		}
		t.Fatalf("%s workers %d: %d bytes differ from the %d of the encoded rows from byte %d on", label, workers, len(got), len(encoded), i)
	}
}

// handBuiltAppendFixture is a table of 300 rows, three runs of IDs, and
// plans over it that the translated fixtures never produce: ORDER BY the
// ID (merged on key blocks) beside a nullable INT holding one NULL, no
// ORDER BY, a width-0 projection, and an empty result. refused are the
// plans ordered by a column that is not INT NOT NULL: a nullable INT
// holding that NULL, and a VARCHAR column.
func handBuiltAppendFixture(t *testing.T) (built *Built, plans, refused map[string]*optimizer.Plan) {
	t.Helper()
	p := rel.NewTable("p", []rel.Column{{Name: "ID", Typ: rel.TInt}, {Name: "N", Typ: rel.TInt, Nullable: true},
		{Name: "v", Typ: rel.TInt}, {Name: "s", Typ: rel.TString}})
	for i := 0; i < 300; i++ {
		n := rel.Int(int64(i % 100))
		if i == 250 {
			n = rel.NullOf(rel.TInt)
		}
		p.AppendRow([]rel.Value{rel.Int(int64(i % 100)), n, rel.Int(int64(i)), rel.Str("s" + strconv.Itoa(300-i))})
	}
	db := rel.NewDatabase()
	db.Add(p)
	built, err := Build(db, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := func(c string) sqlast.SelectItem {
		return sqlast.SelectItem{Col: &sqlast.ColRef{Table: "p", Column: c}, As: "p_" + c}
	}
	plan := func(orderBy string, where []sqlast.Pred, items ...sqlast.SelectItem) *optimizer.Plan {
		sel := &sqlast.Select{From: []string{"p"}, Items: items, Where: where}
		return &optimizer.Plan{Query: &sqlast.Query{Branches: []*sqlast.Select{sel}, OrderBy: orderBy},
			Branches: []*optimizer.Branch{{Sel: sel, Driver: optimizer.Access{Table: "p"}}}}
	}
	none := []sqlast.Pred{{Kind: sqlast.PredCompare, Col: sqlast.ColRef{Table: "p", Column: "v"}, Op: sqlast.OpLt, Value: rel.Int(0)}}
	return built, map[string]*optimizer.Plan{
			"order-by-int": plan("p_ID", nil, col("v"), col("ID"), col("N"), col("s")),
			"unordered":    plan("", nil, col("s"), col("N"), col("v")),
			"width-0":      plan("", nil),
			"empty":        plan("p_ID", none, col("ID"), col("s")),
		}, map[string]*optimizer.Plan{
			"order-by-nullable": plan("p_N", nil, col("v"), col("N")),
			"order-by-varchar":  plan("p_s", nil, col("v"), col("s")),
		}
}

// TestAppendRowsMatchesEncodedRows is the byte target's differential:
// over the equivalence fixtures (and one wide enough for several
// morsels per branch) and the hand-built plans, at every worker count,
// on the resident Built and on the same design reopened as a budgeted
// paged store, AppendRows must return exactly the bytes of encoding
// ExecuteContextWorkers's rows in order with the same encoder, after
// the caller's prefix, with the same row count and stats. The hand-built
// plans ordered by a nullable INT or a VARCHAR column are refused before
// either target runs.
func TestAppendRowsMatchesEncodedRows(t *testing.T) {
	counts := workerCountsUnderTest(t)
	type fixture struct {
		built *Built
		plans map[string]*optimizer.Plan
	}
	fixtures := make(map[string]fixture)
	for name, fx := range equivalenceFixtures(t) {
		plans := make(map[string]*optimizer.Plan)
		for i, p := range fx.plans {
			plans["plan-"+strconv.Itoa(i)] = p
		}
		fixtures[name] = fixture{fx.built, plans}
	}
	built, plans := buildPlans(t, schema.Movie(), resultBytesDoc(), resultBytesQueries, nil)
	fixtures["movie-multi-morsel"] = fixture{built, map[string]*optimizer.Plan{"year": plans[0], "title": plans[1], "title|actor": plans[2]}}
	hb, hbPlans, refused := handBuiltAppendFixture(t)
	fixtures["hand-built"] = fixture{hb, hbPlans}
	for label, plan := range refused {
		if _, err := hb.Prepared(plan); err == nil || !strings.Contains(err.Error(), "INT NOT NULL column in every branch") {
			t.Errorf("hand-built %s: prepare: %v, want the ORDER BY refused", label, err)
		}
	}
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fx := fixtures[name]
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			for substrate, built := range map[string]*Built{"in-memory": fx.built, "disk-resident": OpenPaged(t, fx.built, reg)} {
				t.Run(substrate, func(t *testing.T) {
					built.AttachObs(nil, reg)
					for label, plan := range fx.plans {
						pp, err := built.Prepared(plan)
						if err != nil {
							t.Fatalf("%s: prepare: %v", label, err)
						}
						for _, wk := range counts {
							want, err := pp.ExecuteContextWorkers(context.Background(), wk)
							if err != nil {
								t.Fatalf("%s workers %d: %v", label, wk, err)
							}
							requireAppendMatches(t, label, pp, wk, want)
						}
					}
				})
			}
		})
	}
}

// TestAppendRowsWritesNoResultRows bounds what an ordered byte execution
// allocates into a buffer it does not outgrow: no result cell, arena or
// row header, only the per-execution bookkeeping (slots, tasks, run
// cursors, the merge tree), so at most a tenth of the row headers the
// value target would cut — on a sorted union that arrives as one run and
// on one that arrives as several. The executions run with the collector
// off so the state and block pools stay warm, and the least of five is
// checked: a worker that lands on a P whose pool is empty allocates a
// block now and then, where a row-building path would pay on every
// execution. Under the race detector, which drops pooled items on
// purpose, the bound is not checked.
func TestAppendRowsWritesNoResultRows(t *testing.T) {
	built, plans := buildPlans(t, schema.Movie(), resultBytesDoc(), resultBytesQueries, nil)
	ctx := context.Background()
	for pi, plan := range plans {
		pp, err := built.Prepared(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			var buf []byte
			var rows int
			for i := 0; i < 5; i++ { // warms every P's pools
				if buf, rows, _, err = pp.AppendRows(ctx, workers, buf[:0], encodeRow); err != nil {
					t.Fatal(err)
				}
			}
			got := func() float64 {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				least := math.Inf(1)
				for i := 0; i < 5; i++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if buf, _, _, err = pp.AppendRows(ctx, workers, buf[:0], encodeRow); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&after)
					least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
				}
				return least
			}()
			bound := 0.1 * 24 * float64(rows)
			t.Logf("plan %d workers %d: %d rows, %.0f bytes in the leanest execution (bound %.0f)", pi, workers, rows, got, bound)
			if got > bound && !raceEnabled {
				t.Errorf("plan %d workers %d: %.0f bytes in the leanest of 5 executions, more than a tenth of %d row headers (%.0f)", pi, workers, got, rows, bound)
			}
		}
	}
}
