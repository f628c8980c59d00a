package rel

// BatchSize is the number of tuples an executor batch holds. Batches
// are the unit of work of the pipelined executor: operators pass
// fixed-size blocks of tuples with a selection vector instead of
// materializing whole intermediates (MonetDB/X100-style vectorized
// execution at row granularity).
const BatchSize = 1024

// Batch is a fixed-capacity block of tuples flowing through the
// execution pipeline. Every tuple lives in the batch's own arena — one
// contiguous backing slice, width values per tuple, allocated once for
// BatchSize tuples — so a scan or a join costs arena writes instead of
// one allocation per row, and tuple slices handed out stay valid until
// Reset. The executor fills an arena column by column, so a tuple is as
// wide as the set of columns the query references, not as the tables it
// reads. Sel is the selection vector: the indices of live tuples in
// pipeline order. Filters compact Sel in place and never move tuple
// data.
type Batch struct {
	// Sel is the selection vector over the appended tuples.
	Sel []int32

	arena []Value
	width int
	n     int
}

// NewBatch creates an empty batch of the given tuple width. Width 0 is
// legal: a query that references no column still counts tuples.
func NewBatch(width int) *Batch {
	return &Batch{
		Sel:   make([]int32, 0, BatchSize),
		arena: make([]Value, 0, BatchSize*width),
		width: width,
	}
}

// Reset empties the batch for reuse, keeping its buffers.
func (b *Batch) Reset() {
	b.Sel = b.Sel[:0]
	b.arena = b.arena[:0]
	b.n = 0
}

// Len returns the number of live (selected) tuples.
func (b *Batch) Len() int { return len(b.Sel) }

// Full reports whether the batch holds BatchSize tuples.
func (b *Batch) Full() bool { return b.n >= BatchSize }

// Row returns tuple i (an index as listed in Sel).
func (b *Batch) Row(i int32) []Value {
	lo := int(i) * b.width
	return b.arena[lo : lo+b.width : lo+b.width]
}

// AppendArena registers the next n tuples as live and returns their
// arena region — n*width values, tuple after tuple — for the caller to
// fill. The region is not cleared: a recycled batch still holds the
// values of its previous use in the slots the caller leaves alone. The
// n tuples must fit; an append past BatchSize panics, because it would
// reallocate the arena and invalidate every tuple slice handed out.
func (b *Batch) AppendArena(n int) []Value {
	if b.n+n > BatchSize {
		panic("rel: arena append on a full batch")
	}
	for i := 0; i < n; i++ {
		b.Sel = append(b.Sel, int32(b.n+i))
	}
	b.n += n
	lo := len(b.arena)
	b.arena = b.arena[:lo+n*b.width]
	return b.arena[lo:]
}

// Arena returns the values of every tuple appended since Reset, live or
// filtered out, tuple after tuple.
func (b *Batch) Arena() []Value { return b.arena }

// FilterSel compacts the selection vector in place, keeping the tuples
// for which keep returns true. Tuple data is not moved, so relative
// order is preserved.
func (b *Batch) FilterSel(keep func(row []Value) bool) {
	live := b.Sel[:0]
	for _, si := range b.Sel {
		if keep(b.Row(si)) {
			live = append(live, si)
		}
	}
	b.Sel = live
}
