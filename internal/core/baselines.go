package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/transform"
)

// naiveMaxRounds bounds the baselines' greedy loops; the paper had to
// abort Naive-Greedy after five days on the larger workloads, so a cap
// keeps experiments terminating while preserving the cost shape.
const naiveMaxRounds = 8

// NaiveGreedy is the straightforward extension of the logical-design
// greedy search of [5], [18] to the combined problem (§4.2): every
// round it enumerates every applicable transformation — subsumed and
// non-subsumed alike, with no workload pruning — and calls the
// physical design tool for each resulting mapping.
func (a *Advisor) NaiveGreedy() (*Result, error) {
	start := time.Now()
	var met Metrics
	root := a.Opts.Obs.StartSpan("search", obs.String("algorithm", "naive-greedy"))
	defer root.End()
	curEval, err := a.evaluate(sign(a.Base.Clone()), &met)
	if err != nil {
		return nil, fmt.Errorf("core: costing initial mapping: %w", err)
	}
	rounds := a.Opts.MaxRounds
	if rounds == 0 {
		rounds = naiveMaxRounds
	}
	for round := 0; round < rounds; round++ {
		rsp := root.Child("search-round", obs.Int("round", int64(round)))
		cands := transform.EnumerateAll(curEval.tree, a.Col)
		outs := a.round(len(cands), applyAll(cands, curEval.tree), a.exact, &met)
		best := lowest(outs, curEval.cost)
		rsp.SetAttr(obs.Int("candidates", int64(len(cands))))
		rsp.End()
		if best < 0 {
			break
		}
		a.tracef("naive round %d: cost %.2f -> %.2f", round, curEval.cost, outs[best].cost)
		curEval = outs[best].ev
	}
	met.Duration = time.Since(start)
	return a.result("Naive-Greedy", curEval, met), nil
}

// applyAll is round's apply over single transformations of cur.
func applyAll(ts []transform.Transformation, cur *schema.Tree) func(int) signed {
	return func(i int) signed {
		next, _ := ts[i].Apply(cur) // nil when it does not apply
		return sign(next)
	}
}

// TwoStep first searches the logical design alone — assuming only a
// clustered ID index and a PID index, the best guess without workload
// tuning (§5.1.1) — and then runs the physical design tool once on the
// chosen mapping. Phase-1 candidate costing runs on the shared worker
// pool with memoized results.
func (a *Advisor) TwoStep() (*Result, error) {
	start := time.Now()
	var met Metrics
	root := a.Opts.Obs.StartSpan("search", obs.String("algorithm", "two-step"))
	defer root.End()
	cur := sign(a.Base.Clone())
	curCost, err := a.costUnderDefault(cur, &met)
	if err != nil {
		return nil, err
	}
	rounds := a.Opts.MaxRounds
	if rounds == 0 {
		rounds = naiveMaxRounds
	}
	fixed := func(next signed, m *Metrics) (*evalResult, float64, error) {
		cost, err := a.costUnderDefault(next, m)
		return nil, cost, err
	}
	for round := 0; round < rounds; round++ {
		rsp := root.Child("search-round", obs.Int("round", int64(round)))
		cands := transform.EnumerateAll(cur.tree, a.Col)
		outs := a.round(len(cands), applyAll(cands, cur.tree), fixed, &met)
		best := lowest(outs, curCost)
		rsp.End()
		if best < 0 {
			break
		}
		cur, curCost = outs[best].signed, outs[best].cost
	}
	// Phase 2: physical design once, on the selected logical mapping.
	ev, err := a.evaluate(cur, &met)
	if err != nil {
		return nil, err
	}
	met.Duration = time.Since(start)
	return a.result("Two-Step", ev, met), nil
}

// FullySplitBaseline tunes the fully split mapping — used by tests to
// show hybrid inlining beats it once physical design is available
// (§5.1.4).
func (a *Advisor) FullySplitBaseline() (*Result, error) {
	start := time.Now()
	var met Metrics
	tree := schema.ApplyFullySplit(a.Base.Clone())
	ev, err := a.evaluate(sign(tree), &met)
	if err != nil {
		return nil, err
	}
	met.Duration = time.Since(start)
	return a.result("FullySplit", ev, met), nil
}
