package par

import (
	"context"
	"errors"
	"sync"
)

// ErrPanicked is what the callers waiting on a Memo computation get
// when that computation panicked.
var ErrPanicked = errors.New("par: computation panicked")

// Memo computes a value once per key and shares it: the module's one
// single-flight cache. Its zero value is empty and ready to use; it
// never evicts, so the set of keys computed is the set of keys asked
// for, whatever the order of the asks. A Memo must not be copied after
// first use.
//
// The rules of Do:
//   - The first caller for a key runs f. Concurrent and later callers
//     wait for that result and get the same value, or the same error:
//     an error is kept like a value.
//   - A caller that is waiting stops when its ctx ends and returns
//     ctx.Err(). It does not poison the entry: the computation goes on,
//     and later callers get its result. The caller that runs f runs it
//     to completion whatever its ctx does.
//   - If f panics, the entry is removed, so the next caller computes
//     again; the callers waiting on it get ErrPanicked, and the panic
//     continues on the caller that ran f.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// memoEntry is one key's computation. done is closed when v and err
// are final.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the value of key, running f to compute it when no caller
// has (see Memo for the rules). computed reports whether this caller
// ran f, which is how callers count their misses and hits.
func (m *Memo[K, V]) Do(ctx context.Context, key K, f func() (V, error)) (v V, computed bool, err error) {
	m.mu.Lock()
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.v, false, e.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{}), err: ErrPanicked}
	m.m[key] = e
	m.mu.Unlock()
	returned := false
	defer func() {
		if !returned {
			m.mu.Lock()
			delete(m.m, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = f()
	returned = true
	return e.v, true, e.err
}

// Len reports the number of keys held, computations in flight
// included.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Keys returns the keys held, computations in flight included, in no
// particular order.
func (m *Memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, 0, len(m.m))
	for k := range m.m {
		keys = append(keys, k)
	}
	return keys
}
