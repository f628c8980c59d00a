package core

import (
	"context"
	"errors"

	"repro/internal/par"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/translate"
	"repro/internal/workload"
)

// evalService is the shared candidate-evaluation service: memoization
// caches keyed by the canonical mapping signature. The caches belong to
// one advisor, whose options never change after New, so the options
// need no place in a key.
// Every search path — Greedy's per-round ranking and exact fallback
// sweep, Naive-Greedy's enumeration, and Two-Step's phase-1 loop —
// costs its candidates through one round on it, so a mapping costed in
// one round, by one candidate, or by one strategy is never re-costed by
// another. The Advisor embeds it: a.evaluate is the memo itself, with
// no forwarding layer in between.
//
// Below the caches, every mapping is compiled and its statistics derived
// through the search's shred memo, which hands concurrent evaluations
// shared read-only relations and statistics; the workload queries are
// translated afresh for every mapping.
//
// Evaluations are pure (they only read the advisor's base tree,
// statistics, and workload), so concurrent calls are safe; each cache is
// a par.Memo, so a mapping is computed exactly once no matter how many
// workers request it simultaneously. Because a cache with no eviction
// makes the set of computed keys a function of the set of requested
// keys (not of request order), hit/miss counts — and with them every
// Metrics counter — are bit-identical between sequential and parallel
// runs.
type evalService struct {
	a *Advisor

	// shreds is the search's memo of compiled relations and derived
	// statistics (DESIGN.md, "The advisor"): a mapping compiles and
	// derives only what its transformation changed.
	shreds *shred.Memo
	// tags are the workload queries' texts, the tuner's query tags.
	tags []string
	// observe, when set (by tests), sees every mapping prepared from the
	// memo: the tree, mapping and statistics.
	observe func(*evalResult)

	evals   par.Memo[string, *evalResult] // full tool evaluations, by tree signature
	derives par.Memo[string, float64]     // cost derivations, by (cur, next) signatures
	fixed   par.Memo[string, float64]     // fixed-config costings (Two-Step phase 1)
	qcosts  par.Memo[string, float64]     // bare single-query costs (merging oracle)
}

// memo returns the value cache holds for key, computing it once per key
// however many callers ask at the same time (par.Memo). The computing
// caller's metrics absorb the computation's effort plus an
// EvalCacheMisses tick; every other caller — including callers that
// waited on the computation — records only an EvalCacheHits tick
// (TestEvalCacheAccountingUnderRace pins this). A computation that
// panics leaves no entry, and a request that was waiting on it returns
// par.ErrPanicked, so the round can end and raise the panic on its
// caller.
func memo[V any](cache *par.Memo[string, V], key string, met *Metrics, compute func(*Metrics) (V, error)) (V, error) {
	v, computed, err := cache.Do(context.Background(), key, func() (V, error) { return compute(met) })
	if computed {
		met.EvalCacheMisses++
	} else {
		met.EvalCacheHits++
	}
	return v, err
}

// newEvalService creates the advisor's evaluation service; it persists
// across strategy runs, so Greedy, Naive-Greedy, and Two-Step on one
// advisor reuse each other's evaluations.
func newEvalService(a *Advisor) *evalService {
	tags := make([]string, len(a.W.Queries))
	for i, q := range a.W.Queries {
		tags[i] = q.XPath.String()
	}
	return &evalService{
		a:      a,
		shreds: shred.NewMemo(a.Col, a.Opts.Registry),
		tags:   tags,
	}
}

// signed is a mapping with its canonical Signature, the key of every
// evaluation cache. A search signs each tree once and hands the pair on,
// so a tree that is ranked and then re-estimated is not signed again.
type signed struct {
	tree *schema.Tree
	sig  string
}

// sign pairs a tree with its Signature; a nil tree is the zero signed.
func sign(tree *schema.Tree) signed {
	if tree == nil {
		return signed{}
	}
	return signed{tree: tree, sig: tree.Signature()}
}

// candOutcome is one candidate's result in a round.
type candOutcome struct {
	signed             // the applied mapping; tree nil when the candidate does not apply
	ev     *evalResult // exact evaluation, when the cost function produced one
	cost   float64
	met    Metrics
	failed bool // costing error: the candidate has no cost this round
}

// costFunc costs one applied candidate, returning its exact evaluation
// when it computed one.
type costFunc func(next signed, met *Metrics) (*evalResult, float64, error)

// round is the one candidate round every search runs: apply(i) returns
// candidate i applied to the current mapping and signed (the zero signed
// when it does not apply), and each applied candidate counts one transformation and is
// costed on up to Options.Parallelism goroutines (par.Do: the caller's
// among them, so Parallelism <= 1 runs inline). Effort merges into met
// in candidate order afterwards, and callers reduce the outcomes in
// candidate order, so selection (lowest index wins ties) and Metrics
// totals match a sequential run at any parallelism. A costing error is
// the candidate's outcome, never the round's, so par.Do returns no
// error here; a panic in apply or cost is raised again on the caller.
func (a *Advisor) round(n int, apply func(i int) signed, cost costFunc, met *Metrics) []candOutcome {
	outs := make([]candOutcome, n)
	_ = par.Do(n, a.Opts.Parallelism, func(i int) error {
		o := &outs[i]
		if o.signed = apply(i); o.tree == nil {
			return nil
		}
		o.met.Transformations++
		var err error
		o.ev, o.cost, err = cost(o.signed, &o.met)
		o.failed = err != nil
		if u := (*translate.Unsupported)(nil); errors.As(err, &u) {
			o.met.Dropped[u.Kind]++
		}
		return nil
	})
	for i := range outs {
		met.merge(outs[i].met)
	}
	return outs
}

// lowest returns the index of the cheapest costed outcome strictly
// below bound, the first index winning ties; -1 when none is.
func lowest(outs []candOutcome, bound float64) int {
	best := -1
	for i := range outs {
		if o := &outs[i]; o.tree != nil && !o.failed && o.cost < bound {
			best, bound = i, o.cost
		}
	}
	return best
}

// exact is the costFunc of a full, memoized tool evaluation.
func (a *Advisor) exact(next signed, met *Metrics) (*evalResult, float64, error) {
	ev, err := a.evaluate(next, met)
	if err != nil {
		return nil, 0, err
	}
	return ev, ev.cost, nil
}

// evaluate returns the full evaluation of a mapping, memoized by its
// canonical signature: the first request per distinct mapping pays one
// physical design tool call, and every repeat — across rounds,
// candidates, and search strategies — is a cache hit.
func (s *evalService) evaluate(t signed, met *Metrics) (*evalResult, error) {
	return memo(&s.evals, t.sig, met, func(m *Metrics) (*evalResult, error) {
		return s.a.evaluateFull(t.tree, t.sig, m)
	})
}

// deriveCost returns the memoized Section 4.8 derived cost of moving
// from cur to next. Rounds that reject their winner re-rank the same
// candidates against an unchanged current mapping, so derivations
// repeat across rounds; the cache answers the repeats.
func (s *evalService) deriveCost(cur *evalResult, next signed, met *Metrics) (float64, error) {
	return memo(&s.derives, cur.sig+"->"+next.sig, met, func(m *Metrics) (float64, error) {
		return s.a.deriveCostFull(cur, next.tree, m)
	})
}

// costUnderDefault returns the memoized workload cost of a tree under
// Two-Step's phase-1 default configuration (no tuning).
func (s *evalService) costUnderDefault(t signed, met *Metrics) (float64, error) {
	return memo(&s.fixed, t.sig, met, func(m *Metrics) (float64, error) {
		return s.a.costUnder(t.tree, m)
	})
}

// queryCost returns the memoized bare-configuration cost of one query
// under a tree (the candidate-merging ranking oracle of Section 4.7,
// which re-costs the same queries for every pairwise merge).
func (s *evalService) queryCost(tree *schema.Tree, wq workload.Query, met *Metrics) float64 {
	cost, _ := memo(&s.qcosts, tree.Signature()+"|q:"+wq.XPath.String(), met, func(m *Metrics) (float64, error) {
		return s.a.queryCostFull(tree, wq, m), nil
	})
	return cost
}
