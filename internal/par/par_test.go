package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		var calls [37]atomic.Int32
		if err := Do(len(calls), workers, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("%d workers: index %d called %d times", workers, i, n)
			}
		}
	}
	if err := Do(0, 4, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestDoReportsLowestFailure: whichever call fails first in time, Do
// reports the failure of the lowest index, an error or a panic, and
// every index below it has run.
func TestDoReportsLowestFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var ran [20]atomic.Bool
		err := Do(len(ran), workers, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 5:
				time.Sleep(5 * time.Millisecond) // fails after 9 has
				return fmt.Errorf("task %d", i)
			case 9:
				return fmt.Errorf("task %d", i)
			case 12:
				panic("task 12")
			}
			return nil
		})
		if err == nil || err.Error() != "task 5" {
			t.Fatalf("%d workers: Do = %v, want task 5's error", workers, err)
		}
		for i := 0; i < 5; i++ {
			if !ran[i].Load() {
				t.Fatalf("%d workers: index %d below the failure did not run", workers, i)
			}
		}

		p := func() (p any) {
			defer func() { p = recover() }()
			Do(len(ran), workers, func(i int) error {
				switch i {
				case 3:
					time.Sleep(5 * time.Millisecond)
					panic(errors.ErrUnsupported)
				case 4:
					return errors.New("task 4")
				}
				return nil
			})
			return nil
		}()
		if p != errors.ErrUnsupported {
			t.Fatalf("%d workers: Do raised %v, want task 3's panic value", workers, p)
		}
	}
}

// TestDoWaitsForEveryCall: Do returns after every call it started has
// returned, though one failed at once.
func TestDoWaitsForEveryCall(t *testing.T) {
	var running atomic.Int32
	before := runtime.NumGoroutine()
	err := Do(4, 4, func(i int) error {
		if i == 0 {
			return errors.New("task 0")
		}
		running.Add(1)
		time.Sleep(10 * time.Millisecond)
		running.Add(-1)
		return nil
	})
	if err == nil || running.Load() != 0 {
		t.Fatalf("Do = %v with %d calls still running", err, running.Load())
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Do, %d before", runtime.NumGoroutine(), before)
		}
	}
}
