package difftest

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

// Knobs (documented in README.md):
//
//	-difftest.iters=N   trials in TestDifferential (default 60, 12 in -short)
//	DIFFTEST_SEED=N     base seed for the trial sequence
//	DIFFTEST_REPLAY=... replay one shrunk case, e.g. "seed=7,roots=1,steps=0,queries=3,only=2"
var iterFlag = flag.Int("difftest.iters", 60, "number of differential trials in TestDifferential")

func baseSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("DIFFTEST_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad DIFFTEST_SEED %q: %v", s, err)
	}
	return v
}

func runCase(t *testing.T, c Case) RunStats {
	t.Helper()
	st, m := Run(c)
	if m != nil {
		sc, sm := Shrink(c, m)
		t.Fatalf("differential mismatch; replay with DIFFTEST_REPLAY=%q\nshrunk:   %v\noriginal: %v",
			sc.ReplaySpec(), sm, m)
	}
	return st
}

// TestDifferential runs the full pipeline against the reference
// evaluator over a deterministic sequence of random (schema, document,
// workload) triples, each under a random transformation sequence and a
// random (or tuner-chosen) physical design.
func TestDifferential(t *testing.T) {
	if spec := os.Getenv("DIFFTEST_REPLAY"); spec != "" {
		c, err := ParseReplay(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := runCase(t, c)
		t.Logf("replayed %s: %+v", c.ReplaySpec(), st)
		return
	}
	iters := *iterFlag
	if testing.Short() {
		iters = 12
	}
	base := baseSeed(t)
	var total RunStats
	for i := 0; i < iters; i++ {
		total.Add(runCase(t, DefaultCase(base+int64(i))))
	}
	t.Logf("trials=%d queries=%d executed=%d skipped=%d transforms=%d tuned=%d maxCostRatio=%.1f",
		iters, total.Queries, total.Executed, total.Skipped,
		total.Transforms, total.Tuned, total.MaxCostRatio)
	if total.Executed < iters {
		t.Errorf("only %d queries executed end to end across %d trials; generator or skip classification degraded",
			total.Executed, iters)
	}
}

// TestRunDeterministic pins the replay contract: the same Case yields
// identical statistics on every run.
func TestRunDeterministic(t *testing.T) {
	c := DefaultCase(42)
	st1, m1 := Run(c)
	st2, m2 := Run(c)
	if m1 != nil || m2 != nil {
		t.Fatalf("unexpected mismatch: %v / %v", m1, m2)
	}
	if st1 != st2 {
		t.Fatalf("two runs of the same case diverged: %+v vs %+v", st1, st2)
	}
	if st1.Executed == 0 {
		t.Fatalf("case %s executed no queries: %+v", c.ReplaySpec(), st1)
	}
}

// TestDifferentialZeroBranchQuery: query 3 of DefaultCase(1164),
// //e14[e17 != 9]/e16, is one the trial's mapping proves empty, so it
// translates to a query of zero branches. It runs every stage as any
// other query does — plan, both executors, persistence, chunk scans, the
// service over HTTP — and the compare stage checks its empty result
// against the evaluator.
func TestDifferentialZeroBranchQuery(t *testing.T) {
	c := DefaultCase(1164)
	c.Only = 3
	if st := runCase(t, c); st.Executed != 1 || st.Skipped != 0 {
		t.Fatalf("case %s: %+v, want the query executed", c.ReplaySpec(), st)
	}
}

func TestReplaySpecRoundTrip(t *testing.T) {
	cases := []Case{
		DefaultCase(7),
		{Seed: -3, RootInstances: 1, Steps: 0, Queries: 2, Only: 1, CheckCosts: true},
		{Seed: 1 << 40, RootInstances: 12, Steps: 9, Queries: 8, Only: -1, CheckCosts: true},
		// persist is three-valued: an explicit memory budget survives the
		// round trip (persist=65536), auto stays auto (persist=1).
		{Seed: 5, RootInstances: 2, Steps: 1, Queries: 1, Only: -1, CheckCosts: true, Persist: true, PersistBudget: 65536},
		{Seed: 5, RootInstances: 2, Steps: 1, Queries: 1, Only: -1, CheckCosts: true, Persist: true},
	}
	for _, c := range cases {
		got, err := ParseReplay(c.ReplaySpec())
		if err != nil {
			t.Fatalf("ParseReplay(%q): %v", c.ReplaySpec(), err)
		}
		if got != c {
			t.Errorf("replay round trip: %+v -> %q -> %+v", c, c.ReplaySpec(), got)
		}
	}
	for _, bad := range []string{"seed", "seed=x", "wat=1"} {
		if _, err := ParseReplay(bad); err == nil {
			t.Errorf("ParseReplay(%q) succeeded, want error", bad)
		}
	}
}
