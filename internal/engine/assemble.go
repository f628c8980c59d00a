package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// outSlot is the fixed output slot of one morsel of pipeline work. The
// pipeline does not build rows. On the value target it fills one
// exactly-sized value arena per output batch (whole rows of width
// values, back to back, in pipeline order) and counts them; row headers
// are cut once, by assemble. A width-0 projection has nothing to store,
// so it keeps no arenas and only the count. On the byte target it
// encodes each batch into a pooled rowBlock instead, width 0 included,
// and keeps no arena (see PreparedPlan.AppendRows).
//
// keys holds the ORDER BY keys of the slot's batches when the plan has
// an ORDER BY, one block per batch and one key per row (see
// pipeRun.sink). Key and row blocks are pooled (see releaseSlots).
type outSlot struct {
	arenas [][]rel.Value
	blocks []*rowBlock
	keys   []*keyBlock
	rows   int
	width  int
	st     ExecStats
}

// batches is the number of sink batches the slot holds.
func (s *outSlot) batches() int { return len(s.arenas) + len(s.blocks) }

// batchRows is the number of rows of batch b.
func (s *outSlot) batchRows(b int) int {
	if s.blocks != nil {
		return s.blocks[b].n
	}
	return len(s.arenas[b]) / s.width
}

// keyBlock holds the ORDER BY keys of one sink batch, which never
// exceeds batchSize rows.
type keyBlock [batchSize]int64

// rowBlock holds the encoded rows of one sink batch on the byte target:
// their encodings back to back in buf, row i ending at ends[i]. Nothing
// in it but buf is a pointer, and buf holds none, so the collector never
// scans the rows.
type rowBlock struct {
	n    int
	ends [batchSize]int32
	buf  []byte
}

// row returns the encoding of row i.
func (rb *rowBlock) row(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = rb.ends[i-1]
	}
	return rb.buf[start:rb.ends[i]]
}

// maxBlockBytes is the largest row buffer the pool keeps: a batch of
// unusually wide rows allocates its own rather than pinning one.
const maxBlockBytes = 1 << 20

// keyBlocks and rowBlocks recycle blocks across executions: a block is
// taken by the sink (takeKeyBlock, takeRowBlock), read by assemble, and
// returned by releaseSlots. blocksOut counts the blocks taken and not
// yet returned, which every execution, whatever its outcome, brings
// back to where it found it.
var (
	keyBlocks = sync.Pool{New: func() any { return new(keyBlock) }}
	rowBlocks = sync.Pool{New: func() any { return new(rowBlock) }}
	blocksOut atomic.Int64
)

func takeKeyBlock() *keyBlock {
	blocksOut.Add(1)
	return keyBlocks.Get().(*keyBlock)
}

func takeRowBlock() *rowBlock {
	blocksOut.Add(1)
	return rowBlocks.Get().(*rowBlock)
}

// releaseSlots returns the slots' key and row blocks to their pools.
func releaseSlots(slots []outSlot) {
	for i := range slots {
		s := &slots[i]
		blocksOut.Add(-int64(len(s.keys) + len(s.blocks)))
		for _, kb := range s.keys {
			keyBlocks.Put(kb)
		}
		for _, rb := range s.blocks {
			if cap(rb.buf) > maxBlockBytes {
				rb.buf = nil
			}
			rowBlocks.Put(rb)
		}
		s.keys, s.blocks = nil, nil
	}
}

// noCols is the row of a width-0 projection.
var noCols = []rel.Value{}

// assemble builds the result rows of an execution from its slots in
// plan order: the header slice is allocated once at its exact length
// and every row is cut out of its arena with cap == len, so appending
// to a returned row reallocates instead of reaching its neighbour.
//
// orderPos >= 0 applies the ORDER BY of the sorted outer union on that
// output position while assembling; every slot then holds its batches'
// key blocks. Shredded tables are in document order, so each branch —
// and usually the whole concatenation — arrives as a few long
// non-decreasing runs of the key. One sequential pass over the key
// blocks finds the maximal runs; one run is already the answer and is
// cut in plan order, and k runs are merged through a tournament tree
// over the blocks' int64 keys (see keyMerge), ties going to the earlier
// run. Either way each row header is written once and no result cell is
// read. That is exactly the order a stable sort of the concatenation
// gives (what sortResult does for ExecuteReference), in O(n log k)
// compares and no scratch rows.
func assemble(slots []outSlot, orderPos int) [][]rel.Value {
	n := 0
	for i := range slots {
		n += slots[i].rows
	}
	if n == 0 {
		return nil // like ExecuteReference's: an empty result has nil Rows
	}
	rows := make([][]rel.Value, n)
	if orderPos >= 0 {
		if runs := keyRuns(slots); len(runs) > 1 {
			m := newKeyMerge(runs)
			for i := range rows {
				c := m.top()
				s := &slots[c.si]
				off := int(c.ki) * s.width
				rows[i] = s.arenas[c.ai][off : off+s.width : off+s.width]
				m.pop(slots)
			}
			return rows
		}
	}
	i := 0
	for si := range slots {
		s := &slots[si]
		w := s.width
		if w == 0 {
			for end := i + s.rows; i < end; i++ {
				rows[i] = noCols
			}
			continue
		}
		for _, arena := range s.arenas {
			for k := 0; k < len(arena); k += w {
				rows[i] = arena[k : k+w : k+w]
				i++
			}
		}
	}
	return rows
}

// assembleBytes is assemble for the byte target: it appends the slots'
// row encodings to dst in result order and cuts no row header. Rows
// come out in plan order, or — for an ORDER BY — in the order assemble
// gives, each run's rows copied through the same key merge.
func assembleBytes(dst []byte, slots []outSlot, orderPos int) []byte {
	n, size := 0, 0
	for i := range slots {
		s := &slots[i]
		n += s.rows
		for _, rb := range s.blocks {
			size += len(rb.buf)
		}
	}
	dst = slices.Grow(dst, size)
	if orderPos >= 0 {
		if runs := keyRuns(slots); len(runs) > 1 {
			m := newKeyMerge(runs)
			for ; n > 0; n-- {
				c := m.top()
				dst = append(dst, slots[c.si].blocks[c.ai].row(int(c.ki))...)
				m.pop(slots)
			}
			return dst
		}
	}
	for i := range slots {
		for _, rb := range slots[i].blocks {
			dst = append(dst, rb.buf...)
		}
	}
	return dst
}

// keyCursor is a cursor over one sorted run of rows: the current row's
// slot and batch, its index in the batch (and in the batch's key block),
// the batch's row count, the rows the run has left (the current one
// included), and the current key. A seek-driven union can arrive as n/2
// runs, so the cursor is kept small.
type keyCursor struct {
	si, ai int32
	ki, n  int32
	left   int
	key    int64
}

// keyRuns finds the maximal non-decreasing runs of the slots' rows in
// one sequential pass over their key blocks, each returned as a cursor
// on its first row.
func keyRuns(slots []outSlot) []keyCursor {
	var runs []keyCursor
	var prev int64
	i := 0
	for si := range slots {
		s := &slots[si]
		for ai := range s.keys {
			n := s.batchRows(ai)
			for ki, key := range s.keys[ai][:n] {
				if len(runs) == 0 || key < prev {
					// A run's left holds its first row's index until the
					// next run starts.
					if len(runs) > 0 {
						runs[len(runs)-1].left = i - runs[len(runs)-1].left
					}
					runs = append(runs, keyCursor{si: int32(si), ai: int32(ai), ki: int32(ki), n: int32(n), left: i, key: key})
				}
				prev = key
				i++
			}
		}
	}
	if len(runs) > 0 {
		runs[len(runs)-1].left = i - runs[len(runs)-1].left
	}
	return runs
}

// keyMerge merges sorted runs through a tournament tree over the runs'
// current keys: each internal node holds the run that lost the match
// there, so a row costs one replay from its run's leaf to the root —
// ceil(log2 k) int64 compares — and ties go to the earlier run. top is
// the cursor of the next row in merged order, and pop moves past it;
// both targets' loops call them directly, never through a func value.
type keyMerge struct {
	runs   []keyCursor
	losers []int
	w      int // the winning run
}

func newKeyMerge(runs []keyCursor) keyMerge {
	k := len(runs)
	m := keyMerge{runs: runs, losers: make([]int, k)}
	// Leaves k..2k-1 are the runs; node n's children are 2n and 2n+1.
	win := make([]int, 2*k)
	for r := range runs {
		win[k+r] = r
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if before(runs, b, a) {
			a, b = b, a
		}
		win[n], m.losers[n] = a, b
	}
	m.w = win[1]
	return m
}

// before reports whether run a's row comes before run b's; an
// exhausted run comes last.
func before(runs []keyCursor, a, b int) bool {
	ra, rb := &runs[a], &runs[b]
	if ra.left == 0 || rb.left == 0 {
		return rb.left == 0 && ra.left != 0
	}
	return ra.key < rb.key || ra.key == rb.key && a < b
}

// top is the cursor on the next row in merged order.
func (m *keyMerge) top() *keyCursor { return &m.runs[m.w] }

// pop moves the winning run past its row and replays its leaf-to-root
// path.
func (m *keyMerge) pop(slots []outSlot) {
	runs, losers, w := m.runs, m.losers, m.w
	if c := &runs[w]; c.left > 1 {
		c.left--
		c.advance(slots)
	} else {
		c.left = 0
	}
	for n := (len(runs) + w) / 2; n >= 1; n /= 2 {
		if l := losers[n]; before(runs, l, w) {
			w, losers[n] = l, w
		}
	}
	m.w = w
}

// advance moves a cursor to the run's next row, past the end of its
// batch and past empty batches and slots when it must; the run has one.
func (c *keyCursor) advance(slots []outSlot) {
	if c.ki++; c.ki == c.n {
		c.ki = 0
		for {
			s := &slots[c.si]
			if c.ai++; int(c.ai) >= s.batches() {
				c.ai, c.si = -1, c.si+1
				continue
			}
			if c.n = int32(s.batchRows(int(c.ai))); c.n > 0 {
				break
			}
		}
	}
	c.key = slots[c.si].keys[c.ai][c.ki]
}
