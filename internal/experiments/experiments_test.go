package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Small scales keep the experiment smoke tests fast.
func tinyMovie(t *testing.T) *Dataset {
	t.Helper()
	return LoadMovie(0.15) // 1500 movies
}

func tinyDBLP(t *testing.T) *Dataset {
	t.Helper()
	return LoadDBLP(0.08) // 1600 inproceedings
}

func smallWorkload(t *testing.T, d *Dataset, n int) *workload.Workload {
	t.Helper()
	params := workload.StandardParams(n, 99)[0] // LP-HS
	w, err := workload.Generate(d.Tree, d.Col, params)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunComparisonShapes(t *testing.T) {
	d := tinyMovie(t)
	w := smallWorkload(t, d, 6)
	rows, err := RunComparison(d, w, Algorithms{Greedy: true, Two: true}, core.Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (hybrid, two-step, greedy)", len(rows))
	}
	byAlg := map[string]Row{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	hy := byAlg["Hybrid"]
	gr := byAlg["Greedy"]
	ts := byAlg["Two-Step"]
	if hy.NormExec != 1.0 {
		t.Errorf("hybrid normExec = %f, want 1", hy.NormExec)
	}
	// Fig. 4 shape: the combined search is not worse than hybrid in
	// estimated cost.
	if gr.NormEst > 1.01 {
		t.Errorf("greedy normEst = %f > 1", gr.NormEst)
	}
	// Fig. 6 shape: Greedy searches fewer transformations than
	// Two-Step (which enumerates everything).
	if gr.Transformations >= ts.Transformations {
		t.Errorf("greedy searched %d >= two-step %d", gr.Transformations, ts.Transformations)
	}
	var sb strings.Builder
	PrintRows(&sb, "test", rows)
	if !strings.Contains(sb.String(), "Greedy") {
		t.Error("PrintRows missing algorithm name")
	}
}

func TestRunComparisonWithNaive(t *testing.T) {
	d := tinyMovie(t)
	w := smallWorkload(t, d, 3)
	rows, err := RunComparison(d, w, Algorithms{Greedy: true, Naive: true, Two: true},
		core.Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	byAlg := map[string]Row{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	na, gr := byAlg["Naive-Greedy"], byAlg["Greedy"]
	// Fig. 5/6 shape: Naive searches more and takes longer.
	if na.Transformations <= gr.Transformations {
		t.Errorf("naive searched %d <= greedy %d", na.Transformations, gr.Transformations)
	}
	if na.SearchTime <= gr.SearchTime {
		t.Errorf("naive search time %v <= greedy %v", na.SearchTime, gr.SearchTime)
	}
}

func TestRunTable1(t *testing.T) {
	rows := []Table1Row{RunTable1(tinyDBLP(t)), RunTable1(tinyMovie(t))}
	for _, r := range rows {
		if r.Elements == 0 || r.Transformations == 0 || r.NonSubsumed == 0 {
			t.Errorf("%s: degenerate table-1 row %+v", r.Dataset, r)
		}
		if r.NonSubsumed >= r.Transformations {
			t.Errorf("%s: non-subsumed %d >= total %d", r.Dataset, r.NonSubsumed, r.Transformations)
		}
	}
	// Paper: the number of non-subsumed transformations is about a
	// factor of two fewer than the total.
	for _, r := range rows {
		if float64(r.Transformations)/float64(r.NonSubsumed) < 1.5 {
			t.Errorf("%s: subsumed share too small: %d vs %d", r.Dataset, r.Transformations, r.NonSubsumed)
		}
	}
	var sb strings.Builder
	PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "DBLP") {
		t.Error("PrintTable1 missing dataset")
	}
}

func TestRunFig7(t *testing.T) {
	d := tinyMovie(t)
	w := smallWorkload(t, d, 4)
	rows, err := RunFig7(d, w, core.Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var full, subsumed AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "greedy(all-rules)":
			full = r
		case "greedy+subsumed":
			subsumed = r
		}
	}
	// Skipping subsumed transformations is the major speed-up factor.
	if subsumed.Transformations <= full.Transformations {
		t.Errorf("subsumed variant searched %d <= %d", subsumed.Transformations, full.Transformations)
	}
	if full.Speedup < 1 {
		t.Errorf("full variant speedup %f < 1", full.Speedup)
	}
}

func TestRunFig8(t *testing.T) {
	d := tinyMovie(t)
	w := smallWorkload(t, d, 4)
	rows, err := RunFig8(d, w, core.Options{MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormEst <= 0 {
			t.Errorf("%s: degenerate normEst", r.Variant)
		}
	}
}

func TestRunFig9(t *testing.T) {
	d := tinyDBLP(t)
	w := smallWorkload(t, d, 4)
	rows, err := RunFig9(d, w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var with, without AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "with-derivation":
			with = r
		case "no-derivation":
			without = r
		}
	}
	if with.CostsDerived == 0 {
		t.Error("derivation never fired")
	}
	if with.OptimizerCalls >= without.OptimizerCalls {
		t.Errorf("derivation did not save optimizer calls: %d vs %d",
			with.OptimizerCalls, without.OptimizerCalls)
	}
	// Fig. 9a: little quality drop.
	if without.NormEst > 0 && with.NormEst > without.NormEst*1.25 {
		t.Errorf("derivation quality drop: %f vs %f", with.NormEst, without.NormEst)
	}
}

func TestRunIntroExample(t *testing.T) {
	d := tinyDBLP(t)
	res, err := RunIntroExample(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitCount < 1 || res.SplitCount > 5 {
		t.Errorf("split count = %d", res.SplitCount)
	}
	// The headline shape: with tuning, Mapping 2 must not lose; the
	// paper reports a ~20x win. At our scale expect at least parity.
	if res.TunedRatio() < 0.8 {
		t.Errorf("tuned mapping2 worse than mapping1: ratio %.2f", res.TunedRatio())
	}
	var sb strings.Builder
	PrintIntro(&sb, res)
	if !strings.Contains(sb.String(), "mapping1") {
		t.Error("PrintIntro output malformed")
	}
}

// TestGreedyCompletesOnProvablyEmptyQueries: each of these Movie
// workloads holds a query that selects on one arm of the
// box_office|seasons choice and projects the other, which Greedy's
// initial mapping proves empty. Such a query is a query of zero
// branches, costing nothing, so the search completes instead of failing
// on its initial mapping.
func TestGreedyCompletesOnProvablyEmptyQueries(t *testing.T) {
	d := LoadMovie(0.25)
	for _, c := range []struct {
		seed  int64
		class int // index into StandardParams: 0 LP-HS, 1 LP-LS
	}{{3, 1}, {7, 1}, {20, 1}, {4, 0}, {8, 0}} {
		ws, err := d.Workloads(workload.StandardParams(20, c.seed)[c.class : c.class+1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(d.Tree, d.Col, ws[0], core.Options{}).Greedy()
		if err != nil {
			t.Fatalf("seed %d %s: %v", c.seed, ws[0].Name, err)
		}
		if res.EstCost <= 0 || math.IsInf(res.EstCost, 0) {
			t.Errorf("seed %d %s: estimated cost %v", c.seed, ws[0].Name, res.EstCost)
		}
	}
}
