package core

import (
	"sync"

	"repro/internal/physdesign"
	"repro/internal/schema"
	"repro/internal/workload"
)

// evalService is the shared candidate-evaluation service: a bounded
// worker pool plus memoization caches keyed by the canonical mapping
// signature (schema-tree serialization + physical-design options).
// Every search path — Greedy's per-round ranking and exact fallback
// sweep, Naive-Greedy's enumeration, and Two-Step's phase-1 loop —
// evaluates through it, so a mapping costed in one round, by one
// candidate, or by one strategy is never re-costed by another.
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
func memo[V any](s *evalService, cache map[string]*flight[V], key string, met *Metrics, compute func(*Metrics) (V, error)) (V, error) {
	s.mu.Lock()
	if f, ok := cache[key]; ok {
		s.mu.Unlock()
		<-f.done
		met.EvalCacheHits++
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	cache[key] = f
	met.EvalCacheMisses++
	s.mu.Unlock()
	f.val, f.err = compute(&f.met)
	close(f.done)
	met.merge(f.met)
	return f.val, f.err
}

// service returns the advisor's evaluation service, creating it on
// first use (searches may run concurrently on one advisor).
func (a *Advisor) service() *evalService {
	a.svcOnce.Do(func() {
		a.svc = &evalService{
			a: a,
			optsKey: physdesign.Options{
				StorageBytes:      a.Opts.StorageBytes,
				DisableViews:      a.Opts.DisableViews,
				EnableVPartitions: a.Opts.EnableVPartitions,
			}.Key(),
			evals:   make(map[string]*flight[*evalResult]),
			derives: make(map[string]*flight[float64]),
			fixed:   make(map[string]*flight[float64]),
			qcosts:  make(map[string]*flight[float64]),
		}
	})
	return a.svc
}

// key builds a full cache key from a tree signature.
func (s *evalService) key(treeSig string) string {
	return treeSig + "|" + s.optsKey
}

// forEach runs fn(i) for every i in [0, n) on the bounded worker pool:
// min(Options.Parallelism, n) workers pull indices from a channel.
// With Parallelism <= 1 it runs inline. Callers collect results into
// index-addressed slices and reduce them sequentially in index order,
// which keeps selection (lowest candidate index wins ties) and Metrics
// aggregation deterministic at any parallelism.
func (s *evalService) forEach(n int, fn func(i int)) {
	par := s.a.Opts.Parallelism
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// evaluate returns the memoized full evaluation of a tree, computing it
// once per canonical signature.
func (s *evalService) evaluate(tree *schema.Tree, met *Metrics) (*evalResult, error) {
	return memo(s, s.evals, s.key(tree.Signature()), met, func(m *Metrics) (*evalResult, error) {
		return s.a.evaluateFull(tree, m)
	})
}

// deriveCost returns the memoized Section 4.8 derived cost of moving
// from cur to next. Rounds that reject their winner re-rank the same
// candidates against an unchanged current mapping, so derivations
// repeat across rounds; the cache answers the repeats.
func (s *evalService) deriveCost(cur *evalResult, next *schema.Tree, met *Metrics) (float64, error) {
	return memo(s, s.derives, s.key(cur.tree.Signature()+"->"+next.Signature()), met, func(m *Metrics) (float64, error) {
		return s.a.deriveCostFull(cur, next, m)
	})
}

// costUnderDefault returns the memoized workload cost of a tree under
// Two-Step's phase-1 default configuration (no tuning).
func (s *evalService) costUnderDefault(tree *schema.Tree, met *Metrics) (float64, error) {
	return memo(s, s.fixed, s.key("2step:"+tree.Signature()), met, func(m *Metrics) (float64, error) {
		_, cost, err := s.a.costUnder(tree, defaultConfig, m)
		return cost, err
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
