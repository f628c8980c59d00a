package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// cancelFixture builds a database big enough that one execution spans
// many driver batches, so a cancel fired shortly after Execute starts
// reliably lands mid-scan or mid-join.
func cancelFixture(t *testing.T) (*Built, []*optimizer.Plan) {
	t.Helper()
	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 4000, Seed: 9})
	return buildPlans(t, schema.Movie(), doc, movieQueries, nil)
}

// TestCancelBeforeExecute pins the fast-path contract: an already
// cancelled or already expired context fails Execute immediately with
// the context's error and never touches the executor.
func TestCancelBeforeExecute(t *testing.T) {
	built, plans := cancelFixture(t)
	pp, err := built.Prepared(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for name, ctx := range map[string]context.Context{"cancelled": cancelled, "deadline": expired} {
		wantErr := context.Canceled
		if name == "deadline" {
			wantErr = context.DeadlineExceeded
		}
		for _, wk := range []int{1, 4} {
			if _, err := pp.ExecuteContextWorkers(ctx, wk); !errors.Is(err, wantErr) {
				t.Errorf("%s workers=%d: err = %v, want %v", name, wk, err, wantErr)
			}
		}
		// The top-level helper threads ctx through prepare too.
		if _, err := ExecuteContext(ctx, built, plans[0]); !errors.Is(err, wantErr) {
			t.Errorf("%s ExecuteContext: err = %v, want %v", name, err, wantErr)
		}
	}
}

// TestCancelPreparePoisonsNothing: a context cancelled before
// PreparedContext reserves a cache entry must leave the prepared cache
// empty, and a later un-cancelled call must compile cleanly.
func TestCancelPreparePoisonsNothing(t *testing.T) {
	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 50, Seed: 10})
	built, plans := buildPlans(t, schema.Movie(), doc, movieQueries[:1], nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := built.PreparedContext(ctx, plans[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("PreparedContext on cancelled ctx: err = %v", err)
	}
	if n := built.CachedStructures()["prepared"]; n != 0 {
		t.Fatalf("cancelled prepare left %d cache entries, want 0", n)
	}
	if _, err := built.Prepared(plans[0]); err != nil {
		t.Fatalf("prepare after cancelled attempt: %v", err)
	}
	if n := built.CachedStructures()["prepared"]; n != 1 {
		t.Fatalf("prepared cache = %d entries, want 1", n)
	}
}

// pollCancelCtx is a context that cancels itself on the Nth Done()
// call. The executor calls Done() once per runRange (branch pipeline or
// morsel), so triggering on that call deterministically cancels while
// the execution is in flight — between a pipeline's start and its first
// per-batch cancellation poll — on any hardware. The timing-based
// predecessor of this hook (a goroutine sleeping a few dozen
// microseconds before cancelling) stopped landing once the columnar
// kernels pushed whole executions under the Go scheduler's ~10ms async
// preemption quantum: on a single-core runner the cancel goroutine
// never got the CPU until the execution had already finished.
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

// TestCancelMidExecution cancels executions from within — the context
// trips on the executor's own first cancellation-poll setup, mid-scan
// or mid-join on a 4000-movie fixture — and asserts the prompt-return
// contract: the call comes back with context.Canceled well before the
// work could have finished, and the very next Execute on the same
// PreparedPlan succeeds bit-identically with warm caches (no
// recompilation).
func TestCancelMidExecution(t *testing.T) {
	built, plans := cancelFixture(t)
	for _, wk := range []int{1, 4} {
		interrupted := false
		for pi, plan := range plans {
			want, err := ExecuteReference(built, plan)
			if err != nil {
				t.Fatalf("plan %d: reference: %v", pi, err)
			}
			pp, err := built.Prepared(plan)
			if err != nil {
				t.Fatalf("plan %d: prepare: %v", pi, err)
			}
			missesBefore := built.CacheCounters()["prepared.misses"]
			// Trip the cancel on successively later polls until the plan
			// runs out of pipelines; the first poll always lands.
			for after := int64(1); after <= 4; after++ {
				ctx := newPollCancelCtx(after)
				start := time.Now()
				_, err := pp.ExecuteContextWorkers(ctx, wk)
				took := time.Since(start)
				ctx.cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("plan %d workers %d: err = %v, want context.Canceled", pi, wk, err)
					}
					interrupted = true
					// Prompt return: far under a second even on a loaded box.
					if took > time.Second {
						t.Errorf("plan %d workers %d: cancelled call took %v", pi, wk, took)
					}
				}
			}
			// Warm re-execution after cancellations: bit-identical, no new
			// plan compilation.
			got, err := pp.ExecuteContextWorkers(context.Background(), wk)
			if err != nil {
				t.Fatalf("plan %d workers %d: execute after cancel: %v", pi, wk, err)
			}
			requireIdentical(t, "after-cancel", got, want)
			if after := built.CacheCounters()["prepared.misses"]; after != missesBefore {
				t.Errorf("plan %d workers %d: prepared.misses grew %d -> %d after cancellations",
					pi, wk, missesBefore, after)
			}
		}
		if !interrupted {
			t.Errorf("workers=%d: no cancel landed mid-execution in any attempt", wk)
		}
	}
}

// TestCancelLeaksNoGoroutines runs a burst of cancelled parallel
// executions and checks the goroutine count settles back to where it
// started: morsel workers must exit on cancellation, not park forever.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	built, plans := cancelFixture(t)
	pp, err := built.Prepared(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, _ = pp.ExecuteContextWorkers(ctx, 4)
		cancel()
	}
	// Workers exit asynchronously after Wait; give the runtime a moment
	// to reap them before comparing counts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled executions", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
