package core

import (
	"strings"
	"testing"
)

// assertRunsMatch checks that two runs of the same strategy chose the
// same design at the same cost with identical effort counters —
// everything except wall-clock duration.
func assertRunsMatch(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.EstCost != par.EstCost {
		t.Errorf("costs differ: %.4f vs %.4f", seq.EstCost, par.EstCost)
	}
	if seq.Tree.Signature() != par.Tree.Signature() {
		t.Errorf("trees differ:\n%s\n%s", seq.Tree, par.Tree)
	}
	sm, pm := seq.Metrics, par.Metrics
	sm.Duration, pm.Duration = 0, 0
	if sm != pm {
		t.Errorf("metrics differ:\nseq: %+v\npar: %+v", sm, pm)
	}
}

// TestParallelNaiveMatchesSequential checks that parallel candidate
// evaluation changes neither the chosen design nor the metrics (the
// evaluations are pure and memoized; only scheduling differs).
func TestParallelNaiveMatchesSequential(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	seq, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2}).NaiveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2, Parallelism: 8}).NaiveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsMatch(t, seq, par)
}

// TestParallelGreedyMatchesSequential: Greedy's per-round ranking and
// exact fallback sweep run on the worker pool; results, tie-breaking,
// and every metric counter must be bit-identical to a sequential run.
func TestParallelGreedyMatchesSequential(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	seq, err := New(fx.base, fx.col, fx.w, Options{}).Greedy()
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(fx.base, fx.col, fx.w, Options{Parallelism: 8}).Greedy()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsMatch(t, seq, par)
}

// TestParallelGreedyNoDerivationMatchesSequential covers the
// full-evaluation ranking path (Fig. 9's ablation) under parallelism.
func TestParallelGreedyNoDerivationMatchesSequential(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:3])
	opts := Options{MaxRounds: 2, DisableCostDerivation: true}
	seq, err := New(fx.base, fx.col, fx.w, opts).Greedy()
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := New(fx.base, fx.col, fx.w, opts).Greedy()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsMatch(t, seq, par)
}

// TestParallelTwoStepMatchesSequential: Two-Step's phase-1 enumeration
// runs on the worker pool with memoized fixed-config costings.
func TestParallelTwoStepMatchesSequential(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	seq, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2}).TwoStep()
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2, Parallelism: 8}).TwoStep()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsMatch(t, seq, par)
}

// The race tests exercise each parallel path under -race via the
// package test flags.
func TestParallelNaiveRace(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	if _, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 1, Parallelism: 8}).NaiveGreedy(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelGreedyRace(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	if _, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2, Parallelism: 8}).Greedy(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelTwoStepRace(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	if _, err := New(fx.base, fx.col, fx.w, Options{MaxRounds: 1, Parallelism: 8}).TwoStep(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceOutput(t *testing.T) {
	fx := movieFixture(t, []string{`//movie/avg_rating`})
	var sb strings.Builder
	adv := New(fx.base, fx.col, fx.w, Options{Trace: &sb})
	if _, err := adv.Greedy(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "greedy:") {
		t.Errorf("trace missing search narration: %q", out)
	}
}

// TestTraceDerivedVsExact: every move the ranked walk accepts was
// re-estimated exactly, and the trace shows that re-estimation with the
// candidate's derived cost beside its exact one.
func TestTraceDerivedVsExact(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	var sb strings.Builder
	if _, err := New(fx.base, fx.col, fx.w, Options{Trace: &sb}).Greedy(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(out, "\n")
	applied := 0
	for _, line := range lines {
		// "greedy round N: applied DESC, cost OLD -> NEW"
		head, rest, ok := strings.Cut(line, ": applied ")
		if !ok || strings.Contains(out, head+": exact fallback sweep found") {
			continue
		}
		desc := rest[:strings.LastIndex(rest, ", cost ")]
		exact := rest[strings.LastIndex(rest, " -> ")+len(" -> "):]
		want := head + ": re-estimated " + desc + ", derived "
		found := false
		for _, l := range lines {
			found = found || strings.HasPrefix(l, want) && strings.HasSuffix(l, " exact "+exact)
		}
		if !found {
			t.Errorf("accepted move %q has no line %q…\" exact %s\" in\n%s", desc, want, exact, out)
		}
		applied++
	}
	if applied == 0 {
		t.Fatalf("no move accepted by the ranked walk:\n%s", out)
	}
}
