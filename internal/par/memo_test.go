package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// joinCtx is a context that reports, by closing joined, the first time
// a caller asks for its Done channel: Do asks only when it is about to
// wait on another caller's computation.
type joinCtx struct {
	context.Context
	joined chan struct{}
	once   sync.Once
}

func newJoinCtx(ctx context.Context) *joinCtx {
	return &joinCtx{Context: ctx, joined: make(chan struct{})}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// within runs f on a goroutine of its own and returns what it panicked
// with, failing the test if it has not returned in time.
func within(t *testing.T, label string, f func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		return p
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5 s", label)
		return nil
	}
}

// TestMemoComputesEachKeyOnce: however many callers ask for a key at
// once, f runs once for it, exactly one caller reports computing it,
// and every caller gets its value.
func TestMemoComputesEachKeyOnce(t *testing.T) {
	const keys, callers = 5, 16
	var m Memo[int, string]
	var runs [keys]atomic.Int32
	var computedBy [keys]atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, computed, err := m.Do(context.Background(), k, func() (string, error) {
					runs[k].Add(1)
					time.Sleep(time.Millisecond) // others arrive and wait
					return fmt.Sprint("v", k), nil
				})
				if err != nil || v != fmt.Sprint("v", k) {
					t.Errorf("key %d: Do = %q, %v", k, v, err)
				}
				if computed {
					computedBy[k].Add(1)
				}
			}()
		}
	}
	close(start)
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n, c := runs[k].Load(), computedBy[k].Load(); n != 1 || c != 1 {
			t.Errorf("key %d: f ran %d times, %d callers computed it; want 1 and 1", k, n, c)
		}
	}
	if m.Len() != keys || len(m.Keys()) != keys {
		t.Errorf("Len %d, Keys %v; want %d keys", m.Len(), m.Keys(), keys)
	}
}

// TestMemoKeepsErrors: an error is the key's result like a value: a
// later caller gets the same error without running f.
func TestMemoKeepsErrors(t *testing.T) {
	var m Memo[string, int]
	want := errors.New("no")
	if _, computed, err := m.Do(context.Background(), "k", func() (int, error) { return 0, want }); !computed || err != want {
		t.Fatalf("first Do: computed %v, err %v", computed, err)
	}
	v, computed, err := m.Do(context.Background(), "k", func() (int, error) {
		t.Error("f ran again for a key that holds an error")
		return 1, nil
	})
	if computed || err != want || v != 0 {
		t.Fatalf("second Do = %d, computed %v, err %v; want the kept error", v, computed, err)
	}
}

// TestMemoWaiterCtxLeavesEntry: a caller whose ctx ends while it waits
// returns ctx.Err(), the computation it waited on finishes and is kept,
// and a later caller gets its value without running f.
func TestMemoWaiterCtxLeavesEntry(t *testing.T) {
	var m Memo[string, int]
	release := make(chan struct{})
	computing := make(chan struct{})
	builder := make(chan int, 1)
	go func() {
		v, _, _ := m.Do(context.Background(), "k", func() (int, error) {
			close(computing)
			<-release
			return 7, nil
		})
		builder <- v
	}()
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	jc := newJoinCtx(ctx)
	go func() {
		<-jc.joined
		cancel()
	}()
	var err error
	var computed bool
	if p := within(t, "waiter", func() { _, computed, err = m.Do(jc, "k", func() (int, error) { return 0, nil }) }); p != nil {
		t.Fatalf("the waiter panicked: %v", p)
	}
	if computed || !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: computed %v, err %v; want context.Canceled", computed, err)
	}
	close(release)
	if v := <-builder; v != 7 {
		t.Fatalf("the computing caller got %d, want 7", v)
	}
	v, computed, err := m.Do(context.Background(), "k", func() (int, error) {
		t.Error("f ran again after a waiter's ctx ended")
		return 0, nil
	})
	if v != 7 || computed || err != nil || m.Len() != 1 {
		t.Fatalf("after the cancelled waiter: %d, computed %v, err %v, %d keys", v, computed, err, m.Len())
	}
}

// TestMemoPanicLeavesNoEntry: a panic in f continues on the caller that
// ran it, the caller waiting on it gets ErrPanicked, no entry is left,
// and the next caller computes the key again.
func TestMemoPanicLeavesNoEntry(t *testing.T) {
	var m Memo[string, int]
	jc := newJoinCtx(context.Background())
	computing := make(chan struct{})
	builder := make(chan any, 1)
	go func() {
		defer func() { builder <- recover() }()
		m.Do(context.Background(), "k", func() (int, error) {
			close(computing)
			<-jc.joined // until the waiter waits
			panic("boom")
		})
	}()
	<-computing
	var err error
	var computed bool
	if p := within(t, "waiter", func() {
		_, computed, err = m.Do(jc, "k", func() (int, error) {
			t.Error("the waiter ran the computation it was waiting on")
			return 0, nil
		})
	}); p != nil {
		t.Fatalf("the waiter panicked: %v", p)
	}
	if p := <-builder; p != "boom" {
		t.Fatalf("the computing caller raised %v, want f's panic", p)
	}
	if computed || err != ErrPanicked {
		t.Fatalf("waiter: computed %v, err %v; want ErrPanicked", computed, err)
	}
	if m.Len() != 0 {
		t.Fatalf("%d keys after the panic, want none", m.Len())
	}
	v, computed, err := m.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if v != 3 || !computed || err != nil || m.Len() != 1 {
		t.Fatalf("after the panic: %d, computed %v, err %v, %d keys; want a fresh computation kept", v, computed, err, m.Len())
	}
}
