package core

import (
	"slices"
	"testing"
	"time"
)

// TestHybridBeatsFullySplit reproduces the Section 5.1.4 observation
// that hybrid inlining outperforms the fully split mapping once
// physical design is available: fewer joins, and covering indexes
// substitute for the fine-grained partitioning.
func TestHybridBeatsFullySplit(t *testing.T) {
	fx := dblpFixture(t, []string{
		`//inproceedings[year = 2000]/(title | booktitle | pages | ee | author)`,
		`//book[publisher = "publisher-03"]/(title | year | publisher | isbn | price)`,
	})
	adv := New(fx.base, fx.col, fx.w, Options{})
	hy, err := adv.HybridBaseline()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := adv.FullySplitBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if hy.EstCost > fs.EstCost {
		t.Errorf("hybrid (%.2f) should beat fully split (%.2f) under physical design",
			hy.EstCost, fs.EstCost)
	}
	// And on real execution: each mapping's time is the median of five
	// repetitions taken in turns (hybrid, fully split, hybrid, …), so a
	// burst of load on a shared box lands on both and on one repetition
	// of each, not on one mapping's only measurement.
	const reps = 5
	var hyTimes, fsTimes []time.Duration
	for i := 0; i < reps; i++ {
		for _, m := range []struct {
			res   *Result
			times *[]time.Duration
		}{{hy, &hyTimes}, {fs, &fsTimes}} {
			ex, err := adv.MeasureExecution(m.res, fx.docs...)
			if err != nil {
				t.Fatal(err)
			}
			*m.times = append(*m.times, ex.Elapsed)
		}
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	if hyEx, fsEx := median(hyTimes), median(fsTimes); hyEx > fsEx*3/2 {
		t.Errorf("hybrid measured %v (median of %v) much worse than fully split %v (median of %v)", hyEx, hyTimes, fsEx, fsTimes)
	}
}

// TestTwoStepUsesDefaultConfigInPhaseOne pins the phase-1 cost oracle:
// a clustered ID index and a PID index per relation, no tool calls.
func TestTwoStepUsesDefaultConfigInPhaseOne(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{MaxRounds: 1})
	res, err := adv.TwoStep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PhysDesignCalls != 1 {
		t.Errorf("phase 1 must not call the tool; total calls = %d", res.Metrics.PhysDesignCalls)
	}
	if res.Metrics.Transformations == 0 {
		t.Error("phase 1 searched nothing")
	}
	cfg := defaultConfig(res.Mapping)
	perRelation := 2
	if got := len(cfg.Indexes); got != perRelation*len(res.Mapping.Relations) {
		t.Errorf("default config has %d indexes for %d relations", got, len(res.Mapping.Relations))
	}
}
