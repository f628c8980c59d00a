package engine

import "repro/internal/rel"

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
// pairwise with ties going to the earlier run. That is a stable merge
// sort whose leaves are the runs, so the rows come out in exactly the
// order a stable sort of the concatenation gives (what sortResult does
// for ExecuteReference), in O(n log k) compares.
func assemble(slots []outSlot, orderPos int) [][]rel.Value {
	n := 0
	for i := range slots {
		n += slots[i].rows
	}
	if n == 0 {
		return nil // like ExecuteReference's: an empty result has nil Rows
	}
	rows := make([][]rel.Value, n)
	var ends []int // end offset of every run but the last
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
		for _, arena := range s.arenas {
			for k := 0; k < len(arena); k += w {
				row := arena[k : k+w : k+w]
				if orderPos >= 0 {
					key := &row[orderPos]
					if prev != nil && keyBefore(key, prev) {
						ends = append(ends, i)
					}
					prev = key
				}
				rows[i] = row
				i++
			}
		}
	}
	if len(ends) == 0 {
		return rows
	}
	return mergeRuns(rows, append(ends, n), orderPos)
}

// mergeRuns merges the sorted runs of rows — run r ends at ends[r] and
// starts where run r-1 ended — bottom-up, adjacent pairs first, between
// rows and one scratch slice of the same length, and returns whichever
// of the two holds the final pass.
func mergeRuns(rows [][]rel.Value, ends []int, pos int) [][]rel.Value {
	scratch := make([][]rel.Value, len(rows))
	for len(ends) > 1 {
		merged := ends[:0] // written behind the read position
		lo := 0
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[r]
			if r+1 < len(ends) {
				hi = ends[r+1]
			}
			mergeInto(scratch[lo:hi], rows[lo:mid], rows[mid:hi], pos)
			merged = append(merged, hi)
			lo = hi
		}
		ends = merged
		rows, scratch = scratch, rows
	}
	return rows
}

// mergeInto merges sorted a and b into dst (len(a)+len(b) long); on
// equal keys a's row goes first.
func mergeInto(dst, a, b [][]rel.Value, pos int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if keyBefore(&b[j][pos], &a[i][pos]) {
			dst[i+j] = b[j]
			j++
		} else {
			dst[i+j] = a[i]
			i++
		}
	}
	copy(dst[i+j:], a[i:])
	copy(dst[len(a)+j:], b[j:])
}

// keyBefore reports whether a orders strictly before b under
// rel.Value.Compare. The key of a sorted outer union is a non-NULL int
// id, which is compared without the call.
func keyBefore(a, b *rel.Value) bool {
	if a.Typ == rel.TInt && b.Typ == rel.TInt && !a.Null && !b.Null {
		return a.I < b.I
	}
	return a.Compare(*b) < 0
}
