package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/physdesign"
	"repro/internal/schema"
	"repro/internal/translate"
)

// TestEvaluateMemoized pins the cache contract: re-evaluating a mapping
// with the same canonical signature (here, a fresh clone — exactly what
// a repeated candidate in the exact fallback sweep produces) returns
// the cached result without another physical design tool call.
func TestEvaluateMemoized(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{})
	var met Metrics
	ev1, err := adv.evaluate(sign(fx.base.Clone()), &met)
	if err != nil {
		t.Fatal(err)
	}
	if met.PhysDesignCalls != 1 || met.EvalCacheMisses != 1 {
		t.Fatalf("first evaluation: %+v", met)
	}
	before := met.PhysDesignCalls
	ev2, err := adv.evaluate(sign(fx.base.Clone()), &met)
	if err != nil {
		t.Fatal(err)
	}
	if ev2 != ev1 {
		t.Error("repeated evaluation did not return the cached result")
	}
	if met.PhysDesignCalls != before {
		t.Errorf("repeated evaluation incremented PhysDesignCalls: %d -> %d",
			before, met.PhysDesignCalls)
	}
	if met.EvalCacheHits != 1 {
		t.Errorf("EvalCacheHits = %d, want 1", met.EvalCacheHits)
	}
}

// TestEvaluateSingleFlight: concurrent requests for the same signature
// compute the mapping exactly once; the others wait and record hits.
func TestEvaluateSingleFlight(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{Parallelism: 8})
	const n = 8
	mets := make([]Metrics, n)
	evs := make([]*evalResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ev, err := adv.evaluate(sign(fx.base.Clone()), &mets[i])
			if err != nil {
				t.Error(err)
				return
			}
			evs[i] = ev
		}(i)
	}
	wg.Wait()
	var total Metrics
	for i := range mets {
		total.merge(mets[i])
		if evs[i] != evs[0] {
			t.Error("concurrent callers got different results")
		}
	}
	if total.PhysDesignCalls != 1 || total.EvalCacheMisses != 1 {
		t.Errorf("tool called %d times (misses %d), want exactly 1",
			total.PhysDesignCalls, total.EvalCacheMisses)
	}
	if total.EvalCacheHits != n-1 {
		t.Errorf("EvalCacheHits = %d, want %d", total.EvalCacheHits, n-1)
	}
}

// TestEvalCacheAccountingUnderRace pins the accounting invariant across
// all four memoization maps under concurrency: misses are recorded at
// reservation time, under the map lock, so no matter how requests
// interleave the merged totals are exact — one miss per distinct key,
// and every other request a hit. Run under -race this also exercises
// the single-flight synchronization itself.
func TestEvalCacheAccountingUnderRace(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{})
	alt := schema.ApplyFullySplit(fx.base.Clone())

	// Seed one full evaluation so deriveCost below has a costed current
	// mapping to derive from. This is distinct key #1.
	var seed Metrics
	curEv, err := adv.evaluate(sign(fx.base.Clone()), &seed)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 3
	mets := make([]Metrics, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			m := &mets[w]
			for i := 0; i < iters; i++ {
				if _, err := adv.evaluate(sign(fx.base.Clone()), m); err != nil {
					t.Error(err)
				}
				if _, err := adv.evaluate(sign(alt.Clone()), m); err != nil {
					t.Error(err)
				}
				if _, err := adv.costUnderDefault(sign(fx.base.Clone()), m); err != nil {
					t.Error(err)
				}
				if _, err := adv.costUnderDefault(sign(alt.Clone()), m); err != nil {
					t.Error(err)
				}
				adv.queryCost(fx.base.Clone(), fx.w.Queries[0], m)
				if _, err := adv.deriveCost(curEv, sign(alt.Clone()), m); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	total := seed
	for i := range mets {
		total.merge(mets[i])
	}
	// Distinct keys: evaluate(base), evaluate(alt), fixed(base),
	// fixed(alt), queryCost(base, q0), derive(base->alt).
	const distinct = 6
	requests := 1 + workers*iters*6
	if total.EvalCacheMisses != distinct {
		t.Errorf("EvalCacheMisses = %d, want exactly %d (one per distinct key)",
			total.EvalCacheMisses, distinct)
	}
	if total.EvalCacheHits != requests-distinct {
		t.Errorf("EvalCacheHits = %d, want %d (requests %d - distinct %d)",
			total.EvalCacheHits, requests-distinct, requests, distinct)
	}
	// Full evaluations were computed exactly twice (base and alt); the
	// single derivation may add one more tool call for its re-tuned
	// queries, but single-flighting caps the total at three.
	if total.MappingsCosted != 2 {
		t.Errorf("MappingsCosted = %d, want 2", total.MappingsCosted)
	}
	if total.PhysDesignCalls < 2 || total.PhysDesignCalls > 3 {
		t.Errorf("PhysDesignCalls = %d, want 2 or 3", total.PhysDesignCalls)
	}
}

// TestGreedyReportsCacheHits: a real Greedy search reuses evaluations
// (the merging oracle, rejected-round re-derivations, and the fallback
// sweep all repeat work the cache now answers), and the hits surface in
// the result metrics.
func TestGreedyReportsCacheHits(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	res, err := New(fx.base, fx.col, fx.w, Options{}).Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.EvalCacheHits == 0 {
		t.Error("Greedy search recorded no eval cache hits")
	}
	if res.Metrics.EvalCacheMisses == 0 {
		t.Error("Greedy search recorded no eval cache misses")
	}
}

// TestStrategiesShareCache: running a second strategy on the same
// advisor reuses the first strategy's evaluations.
func TestStrategiesShareCache(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{MaxRounds: 1})
	if _, err := adv.NaiveGreedy(); err != nil {
		t.Fatal(err)
	}
	// Naive-Greedy evaluated the hybrid base mapping; the hybrid
	// baseline on the same advisor must hit it.
	hy, err := adv.HybridBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if hy.Metrics.EvalCacheHits != 1 || hy.Metrics.PhysDesignCalls != 0 {
		t.Errorf("hybrid after naive: hits=%d tool calls=%d, want 1 hit / 0 calls",
			hy.Metrics.EvalCacheHits, hy.Metrics.PhysDesignCalls)
	}
}

// TestRoundCountsDroppedCandidates: a round counts each failed candidate
// whose error wraps a translator refusal under the refusal's kind, and
// nothing for a candidate that does not apply, succeeds, or fails for
// another reason; the counts reach the registry and the trace.
func TestRoundCountsDroppedCandidates(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:1])
	reg := obs.NewRegistry()
	var trace bytes.Buffer
	adv := New(fx.base, fx.col, fx.w, Options{Parallelism: 3, Registry: reg, Trace: &trace})
	refusal := func(k translate.UnsupportedKind) error {
		return fmt.Errorf("core: translating q: %w", &translate.Unsupported{Kind: k})
	}
	errs := []error{nil, refusal(translate.MultiLevelPath), refusal(translate.PathNotUnique),
		errors.New("not a refusal"), refusal(translate.MultiLevelPath), nil}
	// Candidate i costs to errs[i]; the last one does not apply.
	trees := make([]*schema.Tree, len(errs))
	errOf := map[*schema.Tree]error{}
	for i := range len(errs) - 1 {
		trees[i] = fx.base.Clone()
		errOf[trees[i]] = errs[i]
	}
	var met Metrics
	adv.round(len(errs), func(i int) signed { return signed{tree: trees[i]} },
		func(next signed, _ *Metrics) (*evalResult, float64, error) {
			if err := errOf[next.tree]; err != nil {
				return nil, 0, err
			}
			return &evalResult{tree: next.tree}, 1, nil
		}, &met)
	want := map[translate.UnsupportedKind]int{translate.MultiLevelPath: 2, translate.PathNotUnique: 1}
	for k := range met.Dropped {
		if kind := translate.UnsupportedKind(k); met.Dropped[k] != want[kind] {
			t.Errorf("Dropped[%s] = %d, want %d", kind, met.Dropped[k], want[kind])
		}
	}
	adv.result("Greedy", &evalResult{tree: trees[0], rec: &physdesign.Recommendation{}}, met)
	for k, n := range want {
		if got := reg.Counter("advisor.dropped." + k.String()).Value(); got != int64(n) {
			t.Errorf("advisor.dropped.%s = %d, want %d", k, got, n)
		}
	}
	if line := "greedy: candidates dropped on a query that does not translate: path_not_unique=1 multi_level_path=2"; !strings.Contains(trace.String(), line) {
		t.Errorf("trace %q lacks %q", trace.String(), line)
	}
}

// TestRoundRaisesCostPanicOnCaller: a cost function that panics on one
// candidate raises that panic on round's caller at every parallelism,
// only after every other costing the round started has returned, and
// never from a worker, where it would end the process.
func TestRoundRaisesCostPanicOnCaller(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	trees := make([]*schema.Tree, 12)
	for i := range trees {
		trees[i] = fx.base.Clone()
	}
	for _, parallelism := range []int{1, 2, 8} {
		adv := New(fx.base, fx.col, fx.w, Options{Parallelism: parallelism})
		var running atomic.Int32
		cost := func(next signed, _ *Metrics) (*evalResult, float64, error) {
			if next.tree == trees[3] {
				panic(errors.ErrUnsupported)
			}
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(time.Millisecond)
			return nil, 1, nil
		}
		p := func() (p any) {
			defer func() { p = recover() }()
			var met Metrics
			adv.round(len(trees), func(i int) signed { return signed{tree: trees[i]} }, cost, &met)
			return nil
		}()
		if p != errors.ErrUnsupported {
			t.Fatalf("parallelism %d: round raised %v, want the cost function's panic", parallelism, p)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("parallelism %d: %d costings still running after round", parallelism, n)
		}
	}
}

// TestRoundRaisesPanicOfAWaitedEvaluation: when a memoized computation
// panics while another candidate of the round waits on its key, the
// waiter gets par.ErrPanicked instead of waiting forever, and the round
// ends by raising the panic on its caller.
func TestRoundRaisesPanicOfAWaitedEvaluation(t *testing.T) {
	fx := movieFixture(t, movieTestQueries[:2])
	adv := New(fx.base, fx.col, fx.w, Options{Parallelism: 2})
	var waiterErr error
	var arrived atomic.Int32
	cost := func(_ signed, met *Metrics) (*evalResult, float64, error) {
		arrived.Add(1)
		c, err := memo(&adv.fixed, "k", met, func(*Metrics) (float64, error) {
			for arrived.Load() < 2 { // until the other candidate has started
				runtime.Gosched()
			}
			time.Sleep(10 * time.Millisecond) // the other candidate reaches the key and waits
			panic(errors.ErrUnsupported)
		})
		waiterErr = err // only the waiter returns
		return nil, c, err
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		var met Metrics
		adv.round(2, func(int) signed { return signed{tree: fx.base} }, cost, &met)
	}()
	select {
	case p := <-done:
		if p != errors.ErrUnsupported {
			t.Fatalf("round raised %v, want the computation's panic", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round hangs: the waiter never saw the panicked computation end")
	}
	if !errors.Is(waiterErr, par.ErrPanicked) {
		t.Fatalf("waiter got %v, want par.ErrPanicked", waiterErr)
	}
}
