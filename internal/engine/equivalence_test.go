package engine

import (
	"context"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// buildPlans shreds the doc under the tree's mapping and plans every
// query under the config, returning the built database and the plans.
// The Built is Build's: the paper's DiskResident substrate.
func buildPlans(t *testing.T, tree *schema.Tree, doc *xmlgen.Doc,
	queries []string, cfg *physical.Config) (*Built, []*optimizer.Plan) {
	t.Helper()
	return buildPlansCost(t, tree, doc, queries, cfg, DiskResident)
}

// scanCostModels are the two models every equivalence matrix runs
// under: results, order, values and ExecStats must not depend on what a
// scan is charged.
var scanCostModels = map[string]ScanCostModel{"disk-resident": DiskResident, "in-memory": InMemory}

// buildPlansCost is buildPlans under the given scan-cost model.
func buildPlansCost(t *testing.T, tree *schema.Tree, doc *xmlgen.Doc,
	queries []string, cfg *physical.Config, cost ScanCostModel) (*Built, []*optimizer.Plan) {
	t.Helper()
	m, err := shred.Compile(tree)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if cfg == nil {
		cfg = &physical.Config{}
	}
	built, err := BuildWithScanCost(db, cfg, cost)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if built.ScanCost() != cost {
		t.Fatalf("ScanCost() = %d, built under %d", built.ScanCost(), cost)
	}
	opt := optimizer.New(stats.FromDatabase(db))
	var plans []*optimizer.Plan
	for _, qs := range queries {
		sql, err := translate.Translate(m, xpath.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: translate: %v", qs, err)
		}
		plan, err := opt.PlanQuery(sql, cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", qs, err)
		}
		plans = append(plans, plan)
	}
	return built, plans
}

// requireIdentical asserts two executor results are bit-identical:
// column names, rows in order, every value, and stats.
func requireIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: got %d cols, want %d", label, len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: col %d = %q, want %q", label, i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: got %d rows, want %d\ngot:\n%swant:\n%s",
			label, len(got.Rows), len(want.Rows), fmtRows(got), fmtRows(want))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d has %d values, want %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			// BitEqual, not struct equality: NaN must equal NaN and
			// -0.0 must differ from +0.0 for bit-identity to hold.
			if !got.Rows[i][j].BitEqual(want.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d = %v, want %v\ngot:\n%swant:\n%s",
					label, i, j, got.Rows[i][j], want.Rows[i][j], fmtRows(got), fmtRows(want))
			}
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// equivalenceFixtures covers every operator the executors implement:
// heap scans, index seeks, INL and hash joins (base tables and views),
// partition-zip drivers, multi-branch unions, and EXISTS predicates
// from split selections — each Built under the given scan-cost model.
func equivalenceFixtures(t *testing.T, cost ScanCostModel) map[string]struct {
	built *Built
	plans []*optimizer.Plan
} {
	t.Helper()
	out := make(map[string]struct {
		built *Built
		plans []*optimizer.Plan
	})
	add := func(name string, b *Built, ps []*optimizer.Plan) {
		out[name] = struct {
			built *Built
			plans []*optimizer.Plan
		}{b, ps}
	}

	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 300, Seed: 21})
	b, ps := buildPlansCost(t, schema.Movie(), movieDoc, movieQueries, nil, cost)
	add("movie-hybrid", b, ps)

	idxCfg := &physical.Config{}
	idxCfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"},
		Include: []string{"ID", "title", "box_office"}})
	idxCfg.AddIndex(&physical.Index{Name: "ix_actor_pid", Table: "actor", Key: []string{"PID"}})
	idxCfg.AddIndex(&physical.Index{Name: "ix_movie_genre", Table: "movie", Key: []string{"genre"}})
	b, ps = buildPlansCost(t, schema.Movie(), movieDoc, movieQueries, idxCfg, cost)
	add("movie-indexes", b, ps)

	viewCfg := &physical.Config{}
	viewCfg.AddView(&physical.View{Name: "v_movie_actor", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "year", "genre", "title"}, InnerCols: []string{"actor"}})
	b, ps = buildPlansCost(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie[year >= 2000]/(title | box_office)`,
	}, viewCfg, cost)
	add("movie-view", b, ps)

	partCfg := &physical.Config{}
	partCfg.AddPartition(&physical.VPartition{Table: "movie", Groups: [][]string{
		{"title", "year", "box_office", "seasons"},
		{"avg_rating", "genre", "country", "language", "runtime"},
	}})
	b, ps = buildPlansCost(t, schema.Movie(), movieDoc, movieQueries, partCfg, cost)
	add("movie-partition", b, ps)

	dblpDoc := xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 21})
	b, ps = buildPlansCost(t, schema.DBLP(), dblpDoc, dblpQueries, nil, cost)
	add("dblp-hybrid", b, ps)

	splitTree := schema.DBLP()
	for _, n := range splitTree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 2
		}
	}
	b, ps = buildPlansCost(t, splitTree, dblpDoc, []string{
		`//inproceedings[author = "Fatima Author-00005"]/(title | year)`,
	}, nil, cost)
	add("dblp-split-exists", b, ps)

	return out
}

// TestBatchExecutorMatchesReference is the executor differential over
// the integration fixtures: the pipelined batch executor must return
// bit-identical results — rows, order, values, and stats — to the
// row-at-a-time reference path, on the first (cold-cache) execution and
// on repeated warm-cache executions.
func TestBatchExecutorMatchesReference(t *testing.T) {
	for name, fx := range equivalenceFixtures(t, DiskResident) {
		t.Run(name, func(t *testing.T) {
			for pi, plan := range fx.plans {
				want, err := ExecuteReference(fx.built, plan)
				if err != nil {
					t.Fatalf("plan %d: reference: %v", pi, err)
				}
				for run := 0; run < 3; run++ {
					got, err := Execute(fx.built, plan)
					if err != nil {
						t.Fatalf("plan %d run %d: %v", pi, run, err)
					}
					requireIdentical(t, name, got, want)
				}
			}
		})
	}
}

// TestParallelBranchesDeterministic executes the memoized (shared)
// prepared plan of every multi-branch fixture on one goroutine and on
// more goroutines than it has branches, and asserts results stay
// bit-identical to the sequential reference across repeated runs. Run
// with -race this also checks the claim loop for data races.
func TestParallelBranchesDeterministic(t *testing.T) {
	for name, fx := range equivalenceFixtures(t, DiskResident) {
		t.Run(name, func(t *testing.T) {
			for pi, plan := range fx.plans {
				want, err := ExecuteReference(fx.built, plan)
				if err != nil {
					t.Fatalf("plan %d: reference: %v", pi, err)
				}
				pp, err := fx.built.Prepared(plan)
				if err != nil {
					t.Fatalf("plan %d: prepare: %v", pi, err)
				}
				if again, _ := fx.built.Prepared(plan); again != pp {
					t.Fatalf("plan %d: Prepared not memoized", pi)
				}
				for _, workers := range []int{1, 4} {
					for run := 0; run < 3; run++ {
						got, err := pp.ExecuteContextWorkers(context.Background(), workers)
						if err != nil {
							t.Fatalf("plan %d workers %d run %d: %v", pi, workers, run, err)
						}
						requireIdentical(t, name, got, want)
					}
				}
			}
		})
	}
}

// TestStructureCachesPopulate checks the plan-lifetime caches actually
// fill: after executing join-bearing plans, the Built holds cached
// join tables and prepared plans.
func TestStructureCachesPopulate(t *testing.T) {
	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 100, Seed: 40})
	built, plans := buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie/(title | aka_title)`,
	}, nil)
	for _, plan := range plans {
		if _, err := Execute(built, plan); err != nil {
			t.Fatal(err)
		}
	}
	cs := built.CachedStructures()
	if cs["prepared"] != len(plans) {
		t.Errorf("prepared cache = %d, want %d", cs["prepared"], len(plans))
	}
	if cs["joinTables"] == 0 {
		t.Errorf("no cached join tables after join-bearing plans: %v (keys %v)", cs, built.CacheKeys())
	}
	// Re-executing must not grow the caches.
	for _, plan := range plans {
		if _, err := Execute(built, plan); err != nil {
			t.Fatal(err)
		}
	}
	if again := built.CachedStructures(); again["joinTables"] != cs["joinTables"] || again["prepared"] != cs["prepared"] {
		t.Errorf("caches grew on re-execution: %v -> %v", cs, again)
	}
}
