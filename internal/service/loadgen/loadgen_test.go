// The load generator behind the sustained-QPS benchmarks: it drives a
// mixed-tenant XPath workload against a query service at a fixed
// session concurrency and reports sustained throughput and tail
// latency. The benchmarks in bench_test.go are its only user; load
// against a live server comes from the repository's benchmark.

package loadgen_test

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// QueryFunc submits one request; (*service.Service).Query satisfies it.
type QueryFunc func(context.Context, service.Request) (*service.Response, error)

// Options shapes a run.
type Options struct {
	// Concurrency is the number of session goroutines issuing requests
	// back to back. Default 1.
	Concurrency int
	// Ops caps the total requests issued; 0 means run until Duration.
	Ops int
	// Duration bounds the run when Ops is 0. Default 1s.
	Duration time.Duration
}

// Result is the aggregate outcome of a run.
type Result struct {
	// Ops counts requests issued; Completed/Rejected/TimedOut/Errors
	// partition them by outcome (Rejected = ErrOverloaded fast-fails,
	// TimedOut = deadline expiries, Errors = everything else).
	Ops       int64
	Completed int64
	Rejected  int64
	TimedOut  int64
	Errors    int64
	// Rows sums result rows over completed requests — a cheap
	// cross-check that the workload actually produced data.
	Rows int64
	// Elapsed is wall clock for the whole run; QPS is Completed/Elapsed.
	Elapsed time.Duration
	QPS     float64
	// Latency percentiles over completed requests.
	P50, P95, P99, Max time.Duration
}

// Run issues the request mix round-robin across Concurrency session
// goroutines until Ops (or Duration) is exhausted, then aggregates.
// Each session owns its latency slice, so the hot path is
// contention-free except for the shared op ticket counter.
func Run(ctx context.Context, fn QueryFunc, mix []service.Request, opts Options) Result {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Ops <= 0 && opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.Ops <= 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	var (
		ticket    atomic.Int64
		completed atomic.Int64
		rejected  atomic.Int64
		timedOut  atomic.Int64
		errored   atomic.Int64
		rows      atomic.Int64
	)
	lats := make([][]time.Duration, opts.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < opts.Concurrency; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := ticket.Add(1)
				if opts.Ops > 0 && i > int64(opts.Ops) {
					ticket.Add(-1)
					return
				}
				if ctx.Err() != nil {
					ticket.Add(-1)
					return
				}
				req := mix[int(i-1)%len(mix)]
				t0 := time.Now()
				resp, err := fn(ctx, req)
				switch {
				case err == nil:
					completed.Add(1)
					rows.Add(int64(len(resp.Rows)))
					lats[s] = append(lats[s], time.Since(t0))
				case errors.Is(err, service.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, service.ErrDeadline),
					errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, context.Canceled):
					timedOut.Add(1)
				default:
					errored.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := Result{
		Ops:       ticket.Load(),
		Completed: completed.Load(),
		Rejected:  rejected.Load(),
		TimedOut:  timedOut.Load(),
		Errors:    errored.Load(),
		Rows:      rows.Load(),
		Elapsed:   elapsed,
		P50:       pct(all, 50),
		P95:       pct(all, 95),
		P99:       pct(all, 99),
	}
	if n := len(all); n > 0 {
		res.Max = all[n-1]
	}
	if elapsed > 0 {
		res.QPS = float64(res.Completed) / elapsed.Seconds()
	}
	return res
}

// pct is the nearest-rank percentile of a sorted slice.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > len(sorted) {
		i = len(sorted)
	}
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}
