package core

import (
	"errors"
	"sync"

	"repro/internal/par"
	"repro/internal/physdesign"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/translate"
	"repro/internal/workload"
)

// evalService is the shared candidate-evaluation service: memoization
// caches keyed by the canonical mapping signature (schema-tree
// serialization + physical-design options).
// Every search path — Greedy's per-round ranking and exact fallback
// sweep, Naive-Greedy's enumeration, and Two-Step's phase-1 loop —
// costs its candidates through one round on it, so a mapping costed in
// one round, by one candidate, or by one strategy is never re-costed by
// another. The Advisor embeds it: a.evaluate is the memo itself, with
// no forwarding layer in between.
//
// Below the caches, every mapping is prepared from the search's memos
// (shreds, sqls), which hand concurrent evaluations shared read-only
// relations, statistics and SQL.
//
// Evaluations are pure (they only read the advisor's base tree,
// statistics, and workload), so concurrent calls are safe; identical
// keys are single-flighted so a mapping is computed exactly once no
// matter how many workers request it simultaneously. Because a cache
// with no eviction makes the set of computed keys a function of the set
// of requested keys (not of request order), hit/miss counts — and with
// them every Metrics counter — are bit-identical between sequential and
// parallel runs.
type evalService struct {
	a *Advisor
	// optsKey folds the advisor-level physical-design options into
	// every cache key (per-mapping options such as insert rates are a
	// function of the tree and need not be keyed separately).
	optsKey string

	// shreds and sqls are the search's memos of compiled relations,
	// derived statistics and translations (DESIGN.md, "The advisor"):
	// a mapping prepares only what its transformation changed.
	shreds *shred.Memo
	sqls   *translate.Memo
	// tags are the workload queries' texts, the tuner's query tags.
	tags []string
	// observe, when set (by tests), sees every mapping prepared from the
	// memos: the tree, mapping and statistics, and the SQL of each
	// query translated (nil where a query was not).
	observe func(*evalResult)

	mu      sync.Mutex
	evals   map[string]*flight[*evalResult] // full tool evaluations, by tree signature
	derives map[string]*flight[float64]     // cost derivations, by (cur, next) signatures
	fixed   map[string]*flight[float64]     // fixed-config costings (Two-Step phase 1)
	qcosts  map[string]*flight[float64]     // bare single-query costs (merging oracle)
}

// flight is one memoized computation. done is closed when val, err and
// the effort metrics are final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	met  Metrics
}

// memo returns the value cache holds for key, computing it once per key
// however many callers ask at the same time. On a miss the computing
// caller's metrics absorb the computation's effort plus an
// EvalCacheMisses tick; every other caller — including callers that
// arrive while the computation is still in flight — records only an
// EvalCacheHits tick. The miss is recorded at reservation time, while
// the caller still holds the map lock, so exactly one miss per key is
// structural: the decision and the tick cannot be separated by a
// concurrent requester (TestEvalCacheAccountingUnderRace pins this).
//
// A computation that panics still completes its flight, with
// errEvalPanicked, before the panic goes on up the computing caller: a
// request waiting on the key (another worker of the same round) returns
// that error instead of waiting forever, so the round can end and raise
// the panic on its caller.
func memo[V any](s *evalService, cache map[string]*flight[V], key string, met *Metrics, compute func(*Metrics) (V, error)) (V, error) {
	s.mu.Lock()
	if f, ok := cache[key]; ok {
		s.mu.Unlock()
		<-f.done
		met.EvalCacheHits++
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{}), err: errEvalPanicked}
	cache[key] = f
	met.EvalCacheMisses++
	s.mu.Unlock()
	defer close(f.done)
	f.val, f.err = compute(&f.met)
	met.merge(f.met)
	return f.val, f.err
}

// errEvalPanicked is the memoized outcome of a computation that
// panicked.
var errEvalPanicked = errors.New("core: evaluation panicked")

// newEvalService creates the advisor's evaluation service; it persists
// across strategy runs, so Greedy, Naive-Greedy, and Two-Step on one
// advisor reuse each other's evaluations.
func newEvalService(a *Advisor) *evalService {
	tags := make([]string, len(a.W.Queries))
	for i, q := range a.W.Queries {
		tags[i] = q.XPath.String()
	}
	return &evalService{
		a: a,
		optsKey: physdesign.Options{
			StorageBytes:      a.Opts.StorageBytes,
			DisableViews:      a.Opts.DisableViews,
			EnableVPartitions: a.Opts.EnableVPartitions,
		}.Key(),
		shreds:  shred.NewMemo(a.Col, a.Opts.Registry),
		sqls:    translate.NewMemo(a.Opts.Registry),
		tags:    tags,
		evals:   make(map[string]*flight[*evalResult]),
		derives: make(map[string]*flight[float64]),
		fixed:   make(map[string]*flight[float64]),
		qcosts:  make(map[string]*flight[float64]),
	}
}

// service returns the advisor's evaluation service.
func (a *Advisor) service() *evalService { return a.evalService }

// key builds a full cache key from a tree signature.
func (s *evalService) key(treeSig string) string {
	return treeSig + "|" + s.optsKey
}

// candOutcome is one candidate's result in a round.
type candOutcome struct {
	tree *schema.Tree // the applied mapping; nil when the candidate does not apply
	// ev is the candidate's evaluation when the cost function produced
	// one: tuned for an exact cost, or only prepared (rec nil) for a
	// derived cost, which an exact evaluation of the same tree then
	// starts from (evaluateFrom).
	ev     *evalResult
	cost   float64
	met    Metrics
	failed bool // costing error: the candidate has no cost this round
}

// costFunc costs candidate i, applied as tree, returning its evaluation
// when it produced one (candOutcome.ev).
type costFunc func(i int, tree *schema.Tree, met *Metrics) (*evalResult, float64, error)

// round is the one candidate round every search runs: apply(i) returns
// candidate i applied to the current mapping (nil when it does not
// apply), and each applied candidate counts one transformation and is
// costed on up to Options.Parallelism goroutines (par.Do: the caller's
// among them, so Parallelism <= 1 runs inline). Effort merges into met
// in candidate order afterwards, and callers reduce the outcomes in
// candidate order, so selection (lowest index wins ties) and Metrics
// totals match a sequential run at any parallelism. A costing error is
// the candidate's outcome, never the round's, so par.Do returns no
// error here; a panic in apply or cost is raised again on the caller.
func (a *Advisor) round(n int, apply func(i int) *schema.Tree, cost costFunc, met *Metrics) []candOutcome {
	outs := make([]candOutcome, n)
	_ = par.Do(n, a.Opts.Parallelism, func(i int) error {
		o := &outs[i]
		if o.tree = apply(i); o.tree == nil {
			return nil
		}
		o.met.Transformations++
		var err error
		o.ev, o.cost, err = cost(i, o.tree, &o.met)
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
func (a *Advisor) exact(_ int, tree *schema.Tree, met *Metrics) (*evalResult, float64, error) {
	return a.exactFrom(tree, nil, met)
}

// exactFrom is exact for a tree already prepared as prep (nil: not
// prepared).
func (a *Advisor) exactFrom(tree *schema.Tree, prep *evalResult, met *Metrics) (*evalResult, float64, error) {
	ev, err := a.evaluateFrom(tree, prep, met)
	if err != nil {
		return nil, 0, err
	}
	return ev, ev.cost, nil
}

// evaluate returns the full evaluation of a mapping, memoized by its
// canonical signature: the first request per distinct mapping pays one
// physical design tool call, and every repeat — across rounds,
// candidates, and search strategies — is a cache hit.
func (s *evalService) evaluate(tree *schema.Tree, met *Metrics) (*evalResult, error) {
	return s.evaluateFrom(tree, nil, met)
}

// evaluateFrom is evaluate for a tree already prepared as prep (nil:
// not prepared); a miss then tunes prep instead of preparing the tree
// again.
func (s *evalService) evaluateFrom(tree *schema.Tree, prep *evalResult, met *Metrics) (*evalResult, error) {
	sig := tree.Signature()
	return memo(s, s.evals, s.key(sig), met, func(m *Metrics) (*evalResult, error) {
		return s.a.evaluateFull(tree, sig, prep, m)
	})
}

// deriveCost returns the memoized Section 4.8 derived cost of moving
// from cur to next. Rounds that reject their winner re-rank the same
// candidates against an unchanged current mapping, so derivations
// repeat across rounds; the cache answers the repeats. On a miss it
// also returns next prepared, for an exact evaluation of next to start
// from; the memo does not keep it.
func (s *evalService) deriveCost(cur *evalResult, next *schema.Tree, met *Metrics) (float64, *evalResult, error) {
	var prep *evalResult
	cost, err := memo(s, s.derives, s.key(cur.sig+"->"+next.Signature()), met, func(m *Metrics) (float64, error) {
		var cost float64
		var err error
		cost, prep, err = s.a.deriveCostFull(cur, next, m)
		return cost, err
	})
	return cost, prep, err
}

// costUnderDefault returns the memoized workload cost of a tree under
// Two-Step's phase-1 default configuration (no tuning).
func (s *evalService) costUnderDefault(tree *schema.Tree, met *Metrics) (float64, error) {
	return memo(s, s.fixed, s.key("2step:"+tree.Signature()), met, func(m *Metrics) (float64, error) {
		return s.a.costUnder(tree, m)
	})
}

// queryCost returns the memoized bare-configuration cost of one query
// under a tree (the candidate-merging ranking oracle of Section 4.7,
// which re-costs the same queries for every pairwise merge).
func (s *evalService) queryCost(tree *schema.Tree, wq workload.Query, met *Metrics) float64 {
	cost, _ := memo(s, s.qcosts, s.key(tree.Signature()+"|q:"+wq.XPath.String()), met, func(m *Metrics) (float64, error) {
		return s.a.queryCostFull(tree, wq, m), nil
	})
	return cost
}
