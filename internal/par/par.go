// Package par runs indexed tasks on a bounded set of goroutines with
// the outcome of a sequential loop. It is the module's one worker pool.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls f(0), …, f(n-1), each at most once, on up to workers
// goroutines, which claim indexes in ascending order: the caller's own
// and workers-1 spawned for the call, so workers <= 1 spawns nothing
// and runs every call on the caller's goroutine. A call fails when it
// returns an error or panics; once one has failed no further index is
// claimed, so every index below the lowest failing one has run, as in a
// sequential loop that stops at its first failure. Do returns only
// after every call it started has returned, and then reports, on the
// caller's goroutine, the outcome of the lowest failing index: it
// panics again with that call's panic value, or returns its error. A
// panic is never left to end the process from a worker.
func Do(n, workers int, f func(i int) error) error {
	r := &run{f: f, n: n, low: n}
	var wg sync.WaitGroup
	for w := min(workers, n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	if r.out.panicked {
		panic(r.out.value)
	}
	return r.out.err
}

// run is one Do call's shared state.
type run struct {
	f      func(int) error
	n      int
	next   atomic.Int64
	failed atomic.Bool

	mu  sync.Mutex
	low int     // the lowest failing index so far; n while none has failed
	out outcome // how call low ended
}

// work claims and calls indexes until they run out or one has failed.
func (r *run) work() {
	for !r.failed.Load() {
		i := int(r.next.Add(1) - 1)
		if i >= r.n {
			return
		}
		if o := call(r.f, i); o.panicked || o.err != nil {
			r.mu.Lock()
			if i < r.low {
				r.low, r.out = i, o
			}
			r.mu.Unlock()
			r.failed.Store(true)
		}
	}
}

// outcome is how one call of Do's f ended.
type outcome struct {
	err      error
	panicked bool
	value    any // the panic value
}

// call runs f(i), recovering a panic into the outcome.
func call(f func(int) error, i int) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = outcome{panicked: true, value: p}
		}
	}()
	return outcome{err: f(i)}
}
