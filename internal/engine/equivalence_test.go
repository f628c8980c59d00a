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
func buildPlans(t *testing.T, tree *schema.Tree, doc *xmlgen.Doc,
	queries []string, cfg *physical.Config) (*Built, []*optimizer.Plan) {
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
	built, err := Build(db, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
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

// eqFixture is a Built and plans over it.
type eqFixture struct {
	built *Built
	plans []*optimizer.Plan
}

// equivalenceFixtures covers every operator the executors implement:
// heap scans, index seeks, INL and hash joins (base tables and views),
// partition-zip drivers, multi-branch unions, and EXISTS predicates
// from split selections.
func equivalenceFixtures(t *testing.T) map[string]eqFixture {
	t.Helper()
	out := make(map[string]eqFixture)
	add := func(name string, b *Built, ps []*optimizer.Plan) { out[name] = eqFixture{b, ps} }

	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 300, Seed: 21})
	b, ps := buildPlans(t, schema.Movie(), movieDoc, movieQueries, nil)
	add("movie-hybrid", b, ps)

	idxCfg := &physical.Config{}
	idxCfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"},
		Include: []string{"ID", "title", "box_office"}})
	idxCfg.AddIndex(&physical.Index{Name: "ix_actor_pid", Table: "actor", Key: []string{"PID"}})
	idxCfg.AddIndex(&physical.Index{Name: "ix_movie_genre", Table: "movie", Key: []string{"genre"}})
	b, ps = buildPlans(t, schema.Movie(), movieDoc, movieQueries, idxCfg)
	add("movie-indexes", b, ps)

	viewCfg := &physical.Config{}
	viewCfg.AddView(&physical.View{Name: "v_movie_actor", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "year", "genre", "title"}, InnerCols: []string{"actor"}})
	b, ps = buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie[year >= 2000]/(title | box_office)`,
	}, viewCfg)
	add("movie-view", b, ps)

	partCfg := &physical.Config{}
	partCfg.AddPartition(&physical.VPartition{Table: "movie", Groups: [][]string{
		{"title", "year", "box_office", "seasons"},
		{"avg_rating", "genre", "country", "language", "runtime"},
	}})
	b, ps = buildPlans(t, schema.Movie(), movieDoc, movieQueries, partCfg)
	add("movie-partition", b, ps)

	dblpDoc := xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 21})
	b, ps = buildPlans(t, schema.DBLP(), dblpDoc, dblpQueries, nil)
	add("dblp-hybrid", b, ps)

	splitTree := schema.DBLP()
	for _, n := range splitTree.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 2
		}
	}
	b, ps = buildPlans(t, splitTree, dblpDoc, []string{
		`//inproceedings[author = "Fatima Author-00005"]/(title | year)`,
	}, nil)
	add("dblp-split-exists", b, ps)

	return out
}

// TestBatchExecutorMatchesReference is the executor differential over
// the integration fixtures: the pipelined batch executor must return
// bit-identical results — rows, order, values, and stats — to the
// row-at-a-time reference path, on the first (cold-cache) execution and
// on repeated warm-cache executions.
func TestBatchExecutorMatchesReference(t *testing.T) {
	for name, fx := range equivalenceFixtures(t) {
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
	for name, fx := range equivalenceFixtures(t) {
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
