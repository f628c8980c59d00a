package physdesign

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

func movieWorkload(t *testing.T) (Workload, stats.MapProvider, *shred.Mapping) {
	t.Helper()
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 3000, Seed: 51})
	m, err := shred.Compile(schema.Movie())
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	prov := stats.FromDatabase(db)
	var w Workload
	for _, qs := range []string{
		`//movie[year = 1984]/(title | genre)`,
		`//movie[genre = "genre-03"]/(title | year | actor)`,
		`//movie[title = "Movie Title 000042"]/(aka_title | avg_rating)`,
	} {
		sql, err := translate.Translate(m, xpath.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		w = append(w, WeightedQuery{Q: sql, Weight: 1, Tag: qs})
	}
	return w, prov, m
}

func TestTuneReducesCost(t *testing.T) {
	w, prov, _ := movieWorkload(t)
	rec, err := Tune(w, prov, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Config.Indexes) == 0 {
		t.Fatal("no indexes recommended")
	}
	// Compare against the empty configuration.
	base, err := Tune(w, prov, Options{StorageBytes: 1}) // bound too small for anything
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalCost >= base.TotalCost {
		t.Errorf("tuning did not reduce cost: %f >= %f", rec.TotalCost, base.TotalCost)
	}
	if rec.TotalCost > base.TotalCost/2 {
		t.Errorf("tuning benefit too small: %f vs %f", rec.TotalCost, base.TotalCost)
	}
	if rec.OptimizerCalls <= int64(len(w)) {
		t.Errorf("optimizer calls = %d, expected more than one per query", rec.OptimizerCalls)
	}
	if rec.StructBytes <= 0 {
		t.Error("struct bytes not accounted")
	}
}

func TestTuneRespectsStorageBound(t *testing.T) {
	w, prov, _ := movieWorkload(t)
	unbounded, err := Tune(w, prov, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := unbounded.StructBytes / 2
	if bound == 0 {
		t.Skip("nothing recommended")
	}
	rec, err := Tune(w, prov, Options{StorageBytes: bound})
	if err != nil {
		t.Fatal(err)
	}
	if rec.StructBytes > bound {
		t.Errorf("structures %d bytes exceed bound %d", rec.StructBytes, bound)
	}
	if rec.TotalCost < unbounded.TotalCost {
		t.Errorf("bounded config cheaper than unbounded: %f < %f", rec.TotalCost, unbounded.TotalCost)
	}
}

func TestTuneRecommendationExecutes(t *testing.T) {
	// The recommended configuration must actually build and run.
	base := schema.Movie()
	doc := xmlgen.GenerateMovie(base, xmlgen.MovieOptions{Movies: 500, Seed: 52})
	m, _ := shred.Compile(schema.Movie())
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatal(err)
	}
	prov := stats.FromDatabase(db)
	sql, err := translate.Translate(m, xpath.MustParse(`//movie[year = 1984]/(title | actor)`))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Tune(Workload{{Q: sql, Weight: 1}}, prov, Options{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := engine.Build(db, rec.Config)
	if err != nil {
		t.Fatalf("recommended config failed to build: %v\n%s", err, rec.Config)
	}
	res, err := engine.Execute(built, rec.Plans[0])
	if err != nil {
		t.Fatalf("execution under recommendation failed: %v", err)
	}
	_ = res
}

func TestTuneWithViewCandidates(t *testing.T) {
	w, prov, _ := movieWorkload(t)
	withViews, err := Tune(w, prov, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noViews, err := Tune(w, prov, Options{DisableViews: true})
	if err != nil {
		t.Fatal(err)
	}
	// Views may or may not win, but disabling them must never help.
	if withViews.TotalCost > noViews.TotalCost*1.001 {
		t.Errorf("enabling views hurt: %f > %f", withViews.TotalCost, noViews.TotalCost)
	}
}

func TestTuneVPartitionCandidates(t *testing.T) {
	w, prov, _ := movieWorkload(t)
	rec, err := Tune(w, prov, Options{EnableVPartitions: true})
	if err != nil {
		t.Fatal(err)
	}
	// With covering indexes available, vertical partitions are
	// subsumed (Section 3.1): the tool should still produce a valid,
	// beneficial configuration.
	if rec.TotalCost <= 0 {
		t.Error("degenerate cost")
	}
}

func TestCandidateGenerationShapes(t *testing.T) {
	w, prov, _ := movieWorkload(t)
	cands := generateCandidates(w, prov, Options{})
	var haveSelIdx, haveCovering, havePID, haveView bool
	for _, c := range cands {
		if c.idx != nil {
			if c.idx.Key[0] == "year" || c.idx.Key[0] == "genre" || c.idx.Key[0] == "title" {
				haveSelIdx = true
				if len(c.idx.Include) > 0 {
					haveCovering = true
				}
			}
			if c.idx.Key[0] == "PID" {
				havePID = true
			}
		}
		if c.view != nil {
			haveView = true
		}
	}
	if !haveSelIdx || !haveCovering || !havePID || !haveView {
		t.Errorf("candidate generation incomplete: sel=%v cov=%v pid=%v view=%v",
			haveSelIdx, haveCovering, havePID, haveView)
	}
	// No duplicates.
	seen := make(map[string]bool)
	for _, c := range cands {
		if seen[c.id] {
			t.Errorf("duplicate candidate %s", c.id)
		}
		seen[c.id] = true
	}
}
