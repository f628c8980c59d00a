package engine

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// TestStaleCacheDetected is the regression test for the stale-cache
// hazard: mutating a table after Build used to silently serve results
// from cached hash tables / probe sets / prepared plans built over the
// old rows. It must now be a loud error on the next execution.
func TestStaleCacheDetected(t *testing.T) {
	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 50, Seed: 7})
	built, plans := buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
	}, nil)
	if _, err := Execute(built, plans[0]); err != nil {
		t.Fatalf("pre-mutation execute: %v", err)
	}

	// Mutate a base table the cached structures were derived from.
	mt := built.DB.Table("movie")
	if mt == nil {
		t.Fatal("movie table missing")
	}
	row := make([]rel.Value, len(mt.Columns))
	for i := range mt.Columns {
		row[i] = mt.ValueAt(0, i)
	}
	mt.AppendRow(row)

	_, err := Execute(built, plans[0])
	if err == nil {
		t.Fatal("execute after mutation succeeded — stale cached structures were served")
	}
	if !strings.Contains(err.Error(), "mutated after Build") || !strings.Contains(err.Error(), "movie") {
		t.Errorf("stale-cache error not descriptive: %v", err)
	}

	// A rebuilt configuration recovers, and guards its own snapshot:
	// the next append makes it stale in turn.
	rebuilt, err := Build(built.DB, built.Config)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if _, err := Execute(rebuilt, plans[0]); err != nil {
		t.Fatalf("execute after rebuild: %v", err)
	}
	mt.AppendRow(row)
	if _, err := Execute(rebuilt, plans[0]); err == nil {
		t.Fatal("execute after an append past the rebuild succeeded")
	}
}

// TestCacheCounters pins the always-on hit/miss accounting of the
// plan-lifetime caches: one miss per structure, hits on every reuse.
func TestCacheCounters(t *testing.T) {
	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 50, Seed: 8})
	built, plans := buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
	}, nil)
	for run := 0; run < 3; run++ {
		if _, err := Execute(built, plans[0]); err != nil {
			t.Fatal(err)
		}
	}
	cc := built.CacheCounters()
	if cc["prepared.misses"] != 1 {
		t.Errorf("prepared.misses = %d, want 1 (one compile per plan)", cc["prepared.misses"])
	}
	if cc["prepared.hits"] != 2 {
		t.Errorf("prepared.hits = %d, want 2 (two warm executions)", cc["prepared.hits"])
	}
	if cc["join.misses"] == 0 {
		t.Errorf("join.misses = 0, want >0 for a join-bearing plan: %v", cc)
	}
	// Compiling the same plan again only touches the prepared cache.
	if _, err := built.Prepared(plans[0]); err != nil {
		t.Fatal(err)
	}
	if again := built.CacheCounters(); again["prepared.hits"] != cc["prepared.hits"]+1 ||
		again["join.misses"] != cc["join.misses"] {
		t.Errorf("counters after warm Prepared: %v -> %v", cc, again)
	}
}

// TestWarmPreparedAllocatesNothing: a prepared-plan hit counts itself
// without allocating, with no registry attached and with one (whose
// counters AttachObs resolves once).
func TestWarmPreparedAllocatesNothing(t *testing.T) {
	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 50, Seed: 8})
	built, plans := buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
	}, nil)
	if _, err := built.Prepared(plans[0]); err != nil {
		t.Fatal(err)
	}
	warm := func() {
		if _, err := built.Prepared(plans[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("warm Prepared without a registry: %v allocations, want 0", n)
	}
	reg := obs.NewRegistry()
	built.AttachObs(nil, reg)
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("warm Prepared with a registry: %v allocations, want 0", n)
	}
	if got := reg.Counter("engine.cache.prepared.hits").Value(); got != 101 {
		t.Errorf("engine.cache.prepared.hits = %d, want 101 (AllocsPerRun's warm-up run and 100 runs)", got)
	}
}

// TestExecutorObs attaches a tracer and registry and checks the span
// tree covers prepare, structure builds, and executions — and stays
// well-formed — and that registry counters mirror the cache and
// execution traffic.
func TestExecutorObs(t *testing.T) {
	movieDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 50, Seed: 9})
	built, plans := buildPlans(t, schema.Movie(), movieDoc, []string{
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie[year >= 2000]/(title | box_office)`,
	}, nil)
	tr := obs.New()
	reg := obs.NewRegistry()
	built.AttachObs(tr, reg)
	for run := 0; run < 2; run++ {
		for _, plan := range plans {
			if _, err := Execute(built, plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("executor span tree not well-formed: %v", err)
	}
	if got := len(tr.FindAll("executor.prepare")); got != len(plans) {
		t.Errorf("executor.prepare spans = %d, want %d", got, len(plans))
	}
	if got := len(tr.FindAll("executor.execute")); got != 2*len(plans) {
		t.Errorf("executor.execute spans = %d, want %d", got, 2*len(plans))
	}
	if len(tr.FindAll("executor.cache.build")) == 0 {
		t.Error("no executor.cache.build spans for join-bearing plans")
	}
	execs := tr.FindAll("executor.execute")
	if _, ok := execs[0].Attr("rows_out"); !ok {
		t.Errorf("execute span missing rows_out attr: %v", execs[0].AttrKeys())
	}
	if len(execs[0].AttrKeys()) == 0 || len(tr.FindAll("executor.branch")) == 0 {
		t.Error("execute spans missing branch children or attrs")
	}

	snap := reg.Snapshot()
	if snap["engine.exec.executions"] != float64(2*len(plans)) {
		t.Errorf("engine.exec.executions = %v, want %d", snap["engine.exec.executions"], 2*len(plans))
	}
	if snap["engine.cache.prepared.hits"] == 0 || snap["engine.cache.join.misses"] == 0 {
		t.Errorf("cache traffic not mirrored into registry: %v", snap)
	}
}
