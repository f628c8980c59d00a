package engine

import (
	"sort"
	"sync"

	"repro/internal/rel"
)

// outSlot is the fixed output slot of one morsel of pipeline work. The
// pipeline does not build rows: it fills one exactly-sized value arena
// per output batch (whole rows of width values, back to back, in
// pipeline order) and counts them. Row headers are cut once, by
// assemble. A width-0 projection has nothing to store, so it keeps no
// arenas and only the count.
//
// keys holds the ORDER BY keys of the slot's arenas, one block per
// arena and one key per row, as long as every arena so far had a key
// column of ints with no NULL (see pipeRun.sink): the slot is keyed exactly
// when len(keys) == len(arenas). Blocks are pooled (see releaseKeys).
type outSlot struct {
	arenas [][]rel.Value
	keys   []*keyBlock
	rows   int
	width  int
	st     ExecStats
}

// keyBlock holds the ORDER BY keys of one sink batch, which never
// exceeds batchSize rows.
type keyBlock [batchSize]int64

// keyBlocks recycles key blocks across executions: a block is written
// by the sink, read by assemble, and returned by releaseKeys.
var keyBlocks = sync.Pool{New: func() any { return new(keyBlock) }}

// releaseKeys returns the slots' key blocks to their pool.
func releaseKeys(slots []outSlot) {
	for i := range slots {
		s := &slots[i]
		for _, kb := range s.keys {
			keyBlocks.Put(kb)
		}
		s.keys = nil
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
// output position while assembling. Shredded tables are in document
// order, so each branch — and usually the whole concatenation — arrives
// as a few long non-decreasing runs of the key. When every slot is
// keyed, one sequential pass over the key blocks finds the maximal runs;
// one run is already the answer and is cut in plan order, and k runs
// are merged through a tournament tree over the blocks' int64 keys (see
// mergeKeyRuns), ties going to the earlier run. Either way each row
// header is written once and no result cell is read. That is exactly the
// order a stable sort of the concatenation gives (what sortResult does
// for ExecuteReference), in O(n log k) compares and no scratch rows.
//
// A slot is unkeyed only when its key column holds a NULL or is not an
// INT column, which a translated query's ID column never is; a plan
// built by hand may still order by a nullable PID, a leaf of any type or
// a branch's NULL item. Then the rows are cut in plan order and stably
// sorted by Value.Compare, sortResult's order, and sorted reports it.
func assemble(slots []outSlot, orderPos int) (rows [][]rel.Value, sorted bool) {
	n := 0
	keyed := orderPos >= 0
	for i := range slots {
		s := &slots[i]
		n += s.rows
		keyed = keyed && len(s.keys) == len(s.arenas)
	}
	if n == 0 {
		return nil, false // like ExecuteReference's: an empty result has nil Rows
	}
	rows = make([][]rel.Value, n)
	if keyed {
		if runs := keyRuns(slots); len(runs) > 1 {
			mergeKeyRuns(rows, slots, runs)
			return rows, false
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
	if orderPos < 0 || keyed {
		return rows, false
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return rows[a][orderPos].Compare(rows[b][orderPos]) < 0
	})
	return rows, true
}

// keyCursor is a cursor over one sorted run of rows: the current row's
// slot and arena, its index in the arena (and in the arena's key block),
// the arena's row count, the rows the run has left (the current one
// included), and the current key. A seek-driven union can arrive as n/2
// runs, so the cursor is kept small.
type keyCursor struct {
	si, ai int32
	ki, n  int32
	left   int
	key    int64
}

// keyRuns finds the maximal non-decreasing runs of keyed slots in one
// sequential pass over their key blocks, each returned as a cursor on
// its first row.
func keyRuns(slots []outSlot) []keyCursor {
	var runs []keyCursor
	var prev int64
	i := 0
	for si := range slots {
		s := &slots[si]
		for ai, arena := range s.arenas {
			n := len(arena) / s.width
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

// mergeKeyRuns writes the rows of runs into rows in merged order
// through a tournament tree over the runs' current keys: each internal
// node holds the run that lost the match there, so a row costs one
// replay from its run's leaf to the root — ceil(log2 k) int64 compares
// — and ties go to the earlier run.
func mergeKeyRuns(rows [][]rel.Value, slots []outSlot, runs []keyCursor) {
	k := len(runs)
	// before reports whether run a's row comes before run b's; an
	// exhausted run comes last.
	before := func(a, b int) bool {
		ra, rb := &runs[a], &runs[b]
		if ra.left == 0 || rb.left == 0 {
			return rb.left == 0 && ra.left != 0
		}
		return ra.key < rb.key || ra.key == rb.key && a < b
	}
	// Leaves k..2k-1 are the runs; node n's children are 2n and 2n+1.
	losers := make([]int, k)
	win := make([]int, 2*k)
	for r := range runs {
		win[k+r] = r
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if before(b, a) {
			a, b = b, a
		}
		win[n], losers[n] = a, b
	}
	w := win[1]
	for i := range rows {
		c := &runs[w]
		s := &slots[c.si]
		off := int(c.ki) * s.width
		rows[i] = s.arenas[c.ai][off : off+s.width : off+s.width]
		if c.left--; c.left > 0 {
			c.advance(slots)
		}
		for n := (k + w) / 2; n >= 1; n /= 2 {
			if before(losers[n], w) {
				w, losers[n] = losers[n], w
			}
		}
	}
}

// advance moves a cursor to the run's next row, past the end of its
// arena and past empty arenas and slots when it must; the run has one.
func (c *keyCursor) advance(slots []outSlot) {
	if c.ki++; c.ki == c.n {
		c.ki = 0
		for {
			s := &slots[c.si]
			if c.ai++; int(c.ai) >= len(s.arenas) {
				c.ai, c.si = -1, c.si+1
				continue
			}
			if c.n = int32(len(s.arenas[c.ai]) / s.width); c.n > 0 {
				break
			}
		}
	}
	c.key = slots[c.si].keys[c.ai][c.ki]
}
