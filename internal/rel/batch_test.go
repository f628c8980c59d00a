package rel

import (
	"fmt"
	"strings"
	"testing"
)

// fillBatch appends n tuples whose first column holds 0..n-1.
func fillBatch(b *Batch, n int) {
	region := b.AppendArena(n)
	for i := 0; i < n; i++ {
		region[i*len(region)/n] = Int(int64(i))
	}
}

func TestBatchFilterSelPreservesOrder(t *testing.T) {
	b := NewBatch(1)
	fillBatch(b, 10)
	b.FilterSel(func(r []Value) bool { return r[0].I%2 == 0 })
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	want := []int64{0, 2, 4, 6, 8}
	for i, si := range b.Sel {
		if b.Row(si)[0].I != want[i] {
			t.Fatalf("filtered order wrong at %d: %v", i, b.Row(si))
		}
	}
	// A second filter composes over the compacted selection.
	b.FilterSel(func(r []Value) bool { return r[0].I > 2 })
	if got := fmt.Sprint(b.Sel); got != "[4 6 8]" {
		t.Fatalf("Sel after second filter = %s", got)
	}
}

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestBatchAppendArenaContract pins the arena-safety panic: an append
// past BatchSize would reallocate the arena and dangle every tuple slice
// handed out, so it must refuse loudly — in one step or many, at any
// width, the legal width 0 included.
func TestBatchAppendArenaContract(t *testing.T) {
	mustPanic(t, "arena append on a full batch", func() {
		b := NewBatch(1)
		for i := 0; i <= BatchSize; i++ {
			b.AppendArena(1)
		}
	})
	mustPanic(t, "arena append on a full batch", func() {
		NewBatch(2).AppendArena(BatchSize + 1)
	})
	mustPanic(t, "arena append on a full batch", func() {
		b := NewBatch(0)
		b.AppendArena(BatchSize)
		b.AppendArena(1)
	})
	// The append that exactly fills the batch still works: the contract
	// rejects the tuple after the last, not the last itself.
	b := NewBatch(2)
	b.AppendArena(BatchSize - 1)
	b.AppendArena(1)
	if !b.Full() || b.Len() != BatchSize || len(b.Arena()) != 2*BatchSize {
		t.Fatalf("Full=%v Len=%d arena=%d after %d appends", b.Full(), b.Len(), len(b.Arena()), BatchSize)
	}
	// Width 0 counts tuples without storing anything.
	z := NewBatch(0)
	if region := z.AppendArena(3); len(region) != 0 || z.Len() != 3 || len(z.Row(2)) != 0 {
		t.Fatalf("width-0 batch: region %d values, Len %d", len(region), z.Len())
	}
}

// TestBatchAppendArena: the returned region is registered as live
// tuples of the batch width, is not cleared (the executor overwrites the
// slots it reads), and never moves under later appends.
func TestBatchAppendArena(t *testing.T) {
	b := NewBatch(2)
	first := b.AppendArena(1)
	first[0], first[1] = Int(1), Str("a")
	for i := 0; i < 100; i++ {
		region := b.AppendArena(3)
		if len(region) != 6 {
			t.Fatalf("append %d: region of %d values, want 6", i, len(region))
		}
		region[0] = Int(int64(i))
	}
	if first[0].I != 1 || first[1].S != "a" {
		t.Fatalf("first arena tuple moved: %v", first)
	}
	if got := b.Row(b.Sel[0]); &got[0] != &first[0] {
		t.Fatal("Sel[0] does not reference the first arena tuple")
	}
	if got := b.Row(b.Sel[4]); &got[0] != &b.Arena()[8] || cap(got) != 2 {
		t.Fatalf("tuple 4 is not arena[8:10:10]: cap %d", cap(got))
	}
	b.Reset()
	if again := b.AppendArena(1); again[0].I != 1 || again[1].S != "a" {
		t.Fatalf("a recycled region was cleared: %v", again)
	}
}

func TestBatchResetReuse(t *testing.T) {
	b := NewBatch(3)
	fillBatch(b, 2)
	b.Reset()
	if b.Len() != 0 || len(b.Arena()) != 0 || b.Full() {
		t.Fatal("Reset did not empty the batch")
	}
	copy(b.AppendArena(1), []Value{Int(7), Int(8), Str("y")})
	row := b.Row(b.Sel[0])
	if row[0].I != 7 || row[2].S != "y" {
		t.Fatalf("row after reset = %v", row)
	}
}
