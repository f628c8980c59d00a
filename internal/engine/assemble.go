package engine

import (
	"cmp"

	"repro/internal/rel"
)

// outSlot is the fixed output slot of one morsel of pipeline work. The
// pipeline does not build rows: it fills one exactly-sized value arena
// per output batch (whole rows of width values, back to back, in
// pipeline order) and counts them. Row headers are cut once, by
// assemble. A width-0 projection has nothing to store, so it keeps no
// arenas and only the count.
type outSlot struct {
	arenas [][]rel.Value
	rows   int
	width  int
	st     ExecStats
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
// as a few long non-decreasing runs of the key. The cutting pass finds
// the maximal runs; one run is already the answer, and k runs are merged
// in one more pass straight from their arenas into the header slice,
// ties going to the earlier run (see mergeRuns). That is exactly the order a stable sort
// of the concatenation gives (what sortResult does for
// ExecuteReference), in O(n log k) compares and no scratch rows.
func assemble(slots []outSlot, orderPos int) [][]rel.Value {
	n := 0
	for i := range slots {
		n += slots[i].rows
	}
	if n == 0 {
		return nil // like ExecuteReference's: an empty result has nil Rows
	}
	rows := make([][]rel.Value, n)
	var runs []run
	var prev *rel.Value
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
		for ai, arena := range s.arenas {
			for k := 0; k < len(arena); k += w {
				row := arena[k : k+w : k+w]
				if orderPos >= 0 {
					key := &row[orderPos]
					if prev == nil || keyCmp(key, prev) < 0 {
						// A run's left holds its first row's index until
						// the next run starts.
						if len(runs) > 0 {
							runs[len(runs)-1].left = i - runs[len(runs)-1].left
						}
						runs = append(runs, run{si: si, ai: ai, k: k, left: i})
					}
					prev = key
				}
				rows[i] = row
				i++
			}
		}
	}
	if len(runs) > 1 {
		runs[len(runs)-1].left = n - runs[len(runs)-1].left
		mergeRuns(rows, slots, runs, orderPos)
	}
	return rows
}

// run is a cursor over one sorted run of rows: the row at offset k of
// arena ai of slot si, the rows the run has left, and the current row's
// key.
type run struct {
	si, ai, k, left int
	key             *rel.Value
}

// mergeRuns writes the rows of runs into rows in merged order through a
// tournament tree over the runs' current keys: each internal node holds
// the run that lost the match there, so a row costs one replay from its
// run's leaf to the root — ceil(log2 k) compares — and ties go to the
// earlier run.
func mergeRuns(rows [][]rel.Value, slots []outSlot, runs []run, pos int) {
	k := len(runs)
	for r := range runs {
		c := &runs[r]
		c.key = &slots[c.si].arenas[c.ai][c.k+pos]
	}
	// before reports whether run a's row comes before run b's; an
	// exhausted run comes last.
	before := func(a, b int) bool {
		ra, rb := &runs[a], &runs[b]
		if ra.left == 0 || rb.left == 0 {
			return rb.left == 0 && ra.left != 0
		}
		c := keyCmp(ra.key, rb.key)
		return c < 0 || c == 0 && a < b
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
		rows[i] = s.arenas[c.ai][c.k : c.k+s.width : c.k+s.width]
		if c.left--; c.left > 0 {
			c.k += s.width
			c.settle(slots)
			c.key = &slots[c.si].arenas[c.ai][c.k+pos]
		}
		for n := (k + w) / 2; n >= 1; n /= 2 {
			if before(losers[n], w) {
				w, losers[n] = losers[n], w
			}
		}
	}
}

// settle moves a cursor that has stepped off the end of an arena to the
// next row, past empty arenas and slots; the run has one.
func (c *run) settle(slots []outSlot) {
	for {
		as := slots[c.si].arenas
		if c.ai < len(as) && c.k < len(as[c.ai]) {
			return
		}
		c.k = 0
		if c.ai++; c.ai >= len(as) {
			c.ai, c.si = 0, c.si+1
		}
	}
}

// keyCmp orders a and b as rel.Value.Compare does. The key of a sorted
// outer union is a non-NULL int id, which is compared without the call.
func keyCmp(a, b *rel.Value) int {
	if a.Typ == rel.TInt && b.Typ == rel.TInt && !a.Null && !b.Null {
		return cmp.Compare(a.I, b.I)
	}
	return a.Compare(*b)
}
