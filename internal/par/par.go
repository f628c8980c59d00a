// Package par runs indexed tasks on a bounded set of goroutines with
// the outcome of a sequential loop.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls f(0), …, f(n-1), each at most once, on up to workers
// goroutines (at least one), which claim indexes in ascending order. A
// call fails when it returns an error or panics; once one has failed no
// further index is claimed, so every index below the lowest failing one
// has run, as in a sequential loop that stops at its first failure. Do
// returns only after every call it started has returned, and then
// reports, on the caller's goroutine, the outcome of the lowest failing
// index: it panics again with that call's panic value, or returns its
// error. A panic is never left to end the process from a worker.
func Do(n, workers int, f func(i int) error) error {
	outs := make([]outcome, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	workers = min(max(workers, 1), n)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if outs[i] = call(f, i); outs[i].panicked || outs[i].err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range outs {
		if o.panicked {
			panic(o.value)
		}
		if o.err != nil {
			return o.err
		}
	}
	return nil
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
