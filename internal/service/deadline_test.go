package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Deadline and cancellation over the service path: a request past its
// deadline returns promptly with the service's distinct error
// (ErrDeadline, phase-tagged), leaks no goroutines, and never poisons
// a shared cache entry for the next session.

// pollCancelCtx cancels itself on the Nth Done() call. The executor
// calls Done() once per pipeline/morsel range, so the cancel lands
// deterministically mid-execution on any hardware — same hook as the
// engine's cancel battery (see engine/cancel_test.go for why a
// timing-based cancel goroutine does not work on a one-core runner).
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  int64
	after  int64
}

func newPollCancelCtx(after int64) *pollCancelCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancelCtx{Context: ctx, cancel: cancel, after: after}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	if atomic.AddInt64(&c.calls, 1) >= c.after {
		c.cancel()
	}
	return c.Context.Done()
}

func TestServiceDeadlineMidExecution(t *testing.T) {
	m, db, built := movieFixture(t, 1500)
	want := refResults(t, m, db, serviceQueries[:2])
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}

	// Warm both queries once so every shared structure exists before the
	// cancellations; any miss growth afterwards is poisoning.
	for _, qs := range serviceQueries[:2] {
		if _, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "warm", XPath: qs}); err != nil {
			t.Fatalf("warm %s: %v", qs, err)
		}
	}

	qs := serviceQueries[1] // join-bearing: exercises shared probe structures
	// Sweep the trip point across successive Done() polls: the earliest
	// land before admission (phase "queued"), later ones land inside the
	// executor (phase "execute"); at least one of each must occur.
	sawExecute := false
	interrupted := false
	for after := int64(1); after <= 5; after++ {
		ctx := newPollCancelCtx(after)
		start := time.Now()
		_, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: qs, Workers: 4})
		took := time.Since(start)
		ctx.cancel()
		if err == nil {
			continue
		}
		interrupted = true
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("after=%d: err = %v, want ErrDeadline", after, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v does not match the context error", after, err)
		}
		var de *DeadlineError
		if errors.As(err, &de) && de.Phase == "execute" {
			sawExecute = true
		}
		if took > time.Second {
			t.Errorf("after=%d: cancelled call took %v, want prompt return", after, took)
		}
	}
	if !interrupted {
		t.Fatal("no cancellation landed at all")
	}
	if !sawExecute {
		t.Fatal("no cancellation landed mid-execution (phase execute)")
	}
	if got := reg.Snapshot()["service.timedout"]; got < 1 {
		t.Errorf("service.timedout = %v after cancellations", got)
	}

	// The next session gets clean answers from the same shared caches —
	// bit-identical, with no rebuilt structures.
	misses := built.CacheCounters()
	for i, qs := range serviceQueries[:2] {
		resp, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t2", XPath: qs})
		if err != nil {
			t.Fatalf("after cancel, query %d: %v", i, err)
		}
		requireSameResult(t, qs, resp, want[i])
	}
	after := built.CacheCounters()
	for k, v := range misses {
		if len(k) > 7 && k[len(k)-7:] == ".misses" && after[k] != v {
			t.Errorf("cache %s grew %d -> %d: cancellation poisoned a shared entry", k, v, after[k])
		}
	}
}

func TestServiceDeadlineAlreadyExpired(t *testing.T) {
	m, _, built := movieFixture(t, 50)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: serviceQueries[0]})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v", err)
	}
	// The expired request must not have consumed quota.
	if inflight, _, ok := svc.TenantPeaks("t"); ok && inflight != 0 {
		t.Errorf("expired request consumed quota: peak inflight %d", inflight)
	}
}

func TestServiceQueuedDeadline(t *testing.T) {
	m, _, built := movieFixture(t, 50)
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg})
	svc.SetTenantQuota("t", TenantQuota{MaxConcurrent: 1, MaxQueued: 4})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	// Occupy the tenant's only slot so the request must queue, then let
	// its deadline expire in the queue.
	tnt := svc.tenant("t")
	tnt.mu.Lock()
	tnt.admitLocked(0)
	tnt.mu.Unlock()

	start := time.Now()
	_, err := svc.Query(context.Background(), Request{
		Corpus: "movie", Tenant: "t", XPath: serviceQueries[0], TimeoutMS: 30,
	})
	took := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued past deadline: err = %v", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) || de.Phase != "queued" {
		t.Fatalf("phase = %v, want queued (err %v)", de, err)
	}
	if took > 2*time.Second {
		t.Errorf("queued timeout took %v, want prompt return", took)
	}
	if got := reg.Snapshot()["service.tenant.t.queued"]; got != 0 {
		t.Errorf("abandoned waiter still counted queued: gauge = %v", got)
	}

	// Freeing the slot un-wedges the tenant: the next request runs.
	tnt.release(0)
	if _, err := svc.Query(context.Background(), Request{
		Corpus: "movie", Tenant: "t", XPath: serviceQueries[0],
	}); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if got := reg.Snapshot()["service.queue_depth"]; got != 0 {
		t.Errorf("queue_depth = %v after drain, want 0", got)
	}
}

func TestServiceCancelPlanCacheNoPoison(t *testing.T) {
	m, _, built := movieFixture(t, 50)
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: serviceQueries[2]}); err == nil {
		t.Fatal("cancelled request succeeded")
	}
	// The plan built under the cancelled request stays usable: the next
	// session hits the cache instead of replanning.
	if _, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t", XPath: serviceQueries[2]}); err != nil {
		t.Fatalf("after cancelled first use: %v", err)
	}
	snap := reg.Snapshot()
	if snap["service.plan.misses"] != 1 || snap["service.plan.hits"] != 1 {
		t.Errorf("plan cache misses=%v hits=%v, want 1/1 (cancellation poisoned the entry)",
			snap["service.plan.misses"], snap["service.plan.hits"])
	}
}

func TestServiceDeadlineLeaksNoGoroutines(t *testing.T) {
	m, _, built := movieFixture(t, 1500)
	svc := New(Config{PoolWorkers: 4})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	// Warm the plan so the loop measures execution cancels only.
	if _, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t", XPath: serviceQueries[1]}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		ctx := newPollCancelCtx(1)
		_, _ = svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: serviceQueries[1], Workers: 4})
		ctx.cancel()
	}
	// Morsel workers exit asynchronously; give the runtime a moment to
	// reap them (same settle pattern as engine/cancel_test.go).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled service queries",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Compile-time check that both query paths keep one signature, so code
// written against Service.Query runs unchanged against a Client (a
// signature drift fails the build here).
var _ = func() bool {
	var svc *Service
	var c *Client
	var _ func(context.Context, Request) (*Response, error) = svc.Query
	var _ func(context.Context, Request) (*Response, error) = c.Query
	var _ *engine.Result
	return true
}

// TestServiceHugeTimeoutMeansNoDeadline: a timeout_ms whose product with
// time.Millisecond overflows an int64 is no deadline, through Query and
// through the /query handler. Wrapped, 76480200929599801 ms became a
// 64 ns deadline and 18446744073710 ms (≈ 584 years) ≈ 0.45 ms — a
// spurious 504 — while 1e13 ms and MaxInt64 ms wrapped negative. The
// largest value that fits is a real (≈ 292-year) deadline.
func TestServiceHugeTimeoutMeansNoDeadline(t *testing.T) {
	m, db, built := movieFixture(t, 1500)
	qs := serviceQueries[1]
	want := refResults(t, m, db, []string{qs})[0]
	svc := New(Config{DefaultTimeout: time.Minute})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	for _, tc := range []struct {
		ms   int64
		want time.Duration // what Service.timeout resolves
	}{
		{76480200929599801, 0},
		{18446744073710, 0},
		{10_000_000_000_000, 0},
		{math.MaxInt64, 0},
		{maxMS + 1, 0},
		{maxMS, time.Duration(maxMS) * time.Millisecond},
		{-1, 0},
		{0, time.Minute},
	} {
		req := Request{Corpus: "movie", Tenant: "t", XPath: qs, TimeoutMS: tc.ms}
		if got := svc.timeout(req); got != tc.want {
			t.Errorf("timeout_ms %d resolves to %v, want %v", tc.ms, got, tc.want)
		}
		resp, err := svc.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("Query with timeout_ms %d: %v", tc.ms, err)
		}
		requireSameResult(t, fmt.Sprintf("Query timeout_ms %d", tc.ms), resp, want)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(appendRequest(nil, req))))
		if rec.Code != http.StatusOK {
			t.Fatalf("/query with timeout_ms %d: HTTP %d %s", tc.ms, rec.Code, rec.Body)
		}
		got, err := decodeResponse(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("/query with timeout_ms %d: %v", tc.ms, err)
		}
		requireSameResult(t, fmt.Sprintf("/query timeout_ms %d", tc.ms), got, want)
	}
}
