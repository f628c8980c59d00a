package engine

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// workerCountsUnderTest returns the worker counts every equivalence
// fixture runs at: the fixed battery {0, 1, 2, 7, NumCPU, -1}, any count
// injected by CI through ENGINE_TEST_WORKERS, and two randomized
// counts whose seed is logged so a failure replays with
// ENGINE_TEST_SEED=<seed>.
func workerCountsUnderTest(t *testing.T) []int {
	t.Helper()
	counts := []int{0, 1, 2, 7, runtime.NumCPU(), -1}
	if env := os.Getenv("ENGINE_TEST_WORKERS"); env != "" {
		w, err := strconv.Atoi(env)
		if err != nil || w < 1 {
			t.Fatalf("ENGINE_TEST_WORKERS=%q: want a positive integer", env)
		}
		counts = append(counts, w)
	}
	rng := rand.New(rand.NewSource(engineTestSeed(t)))
	for i := 0; i < 2; i++ {
		counts = append(counts, 2+rng.Intn(15))
	}
	t.Logf("worker counts under test: %v", counts)
	return counts
}

// engineTestSeed returns the seed of a randomized engine test: the clock,
// or ENGINE_TEST_SEED to replay a failure. It logs the seed it chose.
func engineTestSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if env := os.Getenv("ENGINE_TEST_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ENGINE_TEST_SEED=%q: want an int64", env)
		}
		seed = s
	}
	t.Logf("random seed %d (replay: ENGINE_TEST_SEED=%d)", seed, seed)
	return seed
}

// OpenPaged saves b as a store on disk and returns the store's
// PagedBuilt, reopened under a quarter of the data's bytes with its
// metrics in reg (nil for none): the substrate the paper's measured runs
// execute on. The storage package imports engine, so only the external
// tests can supply it (see paged_test.go).
var OpenPaged func(t *testing.T, b *Built, reg *obs.Registry) *Built

// TestMorselExecutorMatchesReference is the intra-query-parallelism
// differential: every integration fixture plan, executed at each worker
// count on its resident Built ("in-memory") and on the same design saved
// and reopened as a budgeted paged store ("disk-resident"), must be
// bit-identical — columns, rows in order, values, and stats — to the
// row-at-a-time reference executor over the resident Built, on cold and
// warm caches. Under -race this also exercises the morsel dispatch, the
// shared branch pools, the single-flight caches and the pager for data
// races.
func TestMorselExecutorMatchesReference(t *testing.T) {
	counts := workerCountsUnderTest(t)
	fixtures := equivalenceFixtures(t)
	// The integration fixtures fit a single morsel (a few hundred driver
	// rows vs morselRows = 4096); add a fixture wide enough that every
	// branch genuinely splits across morsels at the default size.
	bigDoc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 3 * morselRows / 2, Seed: 77})
	bigBuilt, bigPlans := buildPlans(t, schema.Movie(), bigDoc, movieQueries, nil)
	fixtures["movie-multi-morsel"] = eqFixture{bigBuilt, bigPlans}
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fx := fixtures[name]
		t.Run(name, func(t *testing.T) {
			substrates := map[string]*Built{"in-memory": fx.built, "disk-resident": OpenPaged(t, fx.built, nil)}
			for substrate, built := range substrates {
				t.Run(substrate, func(t *testing.T) {
					for pi, plan := range fx.plans {
						want, err := ExecuteReference(fx.built, plan)
						if err != nil {
							t.Fatalf("plan %d: reference: %v", pi, err)
						}
						pp, err := built.Prepared(plan)
						if err != nil {
							t.Fatalf("plan %d: prepare: %v", pi, err)
						}
						for _, wk := range counts {
							for run := 0; run < 2; run++ {
								got, err := pp.ExecuteContextWorkers(context.Background(), wk)
								if err != nil {
									t.Fatalf("plan %d workers %d run %d: %v", pi, wk, run, err)
								}
								requireIdentical(t, name, got, want)
							}
						}
					}
				})
			}
		})
	}
}

// TestWorkersKnobSemantics pins the workers argument's resolution
// rules: 0 and 1 are one goroutine (the caller's), negative means
// GOMAXPROCS, and n > 1 is n goroutines on the same task list — all
// bit-identical to the reference.
func TestWorkersKnobSemantics(t *testing.T) {
	fx := equivalenceFixtures(t)["movie-hybrid"]
	for pi, plan := range fx.plans {
		want, err := ExecuteReference(fx.built, plan)
		if err != nil {
			t.Fatalf("plan %d: reference: %v", pi, err)
		}
		pp, err := fx.built.Prepared(plan)
		if err != nil {
			t.Fatalf("plan %d: prepare: %v", pi, err)
		}
		for _, wk := range []int{0, 1, -1, 3} {
			got, err := pp.ExecuteContextWorkers(context.Background(), wk)
			if err != nil {
				t.Fatalf("plan %d workers %d: %v", pi, wk, err)
			}
			requireIdentical(t, "workers-knob", got, want)
		}
	}
}
