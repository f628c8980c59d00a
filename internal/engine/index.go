package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// builtIndex is a sorted permutation of a table's rows by its one key
// column: the row ids in index order plus the key of every non-NULL
// position, held as one typed vector — int64s, float64s or string ranks
// — so a seek compares scalars and never builds a rel.Value per probe
// step.
type builtIndex struct {
	idx   *physical.Index
	table *rel.Table
	key   int // the key column's index in table
	// order is the table's row ids in index order: rows whose key is NULL
	// first, then by key, ties broken by row id — the stable sort of the
	// row ids by Value.Compare over the key.
	order []int32
	bytes int64
	// firstNonNull is the first position whose key is non-NULL.
	firstNonNull int

	// typ is the key column's type, which says which vector holds the
	// keys. ints, floats and ranks hold the keys of positions
	// firstNonNull onward, so the key at position i is at
	// i-firstNonNull.
	typ    rel.Type
	ints   []int64
	floats []float64
	// ranks are string keys as positions in strs, the column's distinct
	// strings in ascending order, so ranks order as their strings do.
	ranks []uint32
	strs  []string
}

// rankTable orders a string column's dictionary: strs holds its distinct
// strings in ascending order, and rank maps a dictionary code to the
// position of its string in strs.
type rankTable struct {
	strs []string
	rank []uint32
}

// rankTables memoizes one rankTable per dictionary — per string column —
// for one Build, so the indexes that lead on one column sort its
// dictionary once and share the sorted strings.
type rankTables map[*rel.Dict]*rankTable

func (rt rankTables) of(dict *rel.Dict) *rankTable {
	if r, ok := rt[dict]; ok {
		return r
	}
	src := dict.Strs()
	sorted := make([]uint32, len(src))
	for c := range sorted {
		sorted[c] = uint32(c)
	}
	// Dictionary entries are distinct, so no two codes tie.
	slices.SortFunc(sorted, func(a, b uint32) int { return strings.Compare(src[a], src[b]) })
	r := &rankTable{strs: make([]string, len(src)), rank: make([]uint32, len(src))}
	for pos, c := range sorted {
		r.rank[c] = uint32(pos)
		r.strs[pos] = src[c]
	}
	rt[dict] = r
	return r
}

// buildIndex sorts the rows of t, the table idx names (a base table, or
// a view or table a join or EXISTS indexes its key column of), by idx's
// key column. An index has exactly one: the tuner proposes no other, and
// one that arrives from a manifest or a design file is refused.
func buildIndex(t *rel.Table, idx *physical.Index, ranks rankTables) (*builtIndex, error) {
	if len(idx.Key) != 1 {
		return nil, fmt.Errorf("engine: index %s on %s has %d key columns; an index has one", idx.Name, idx.Table, len(idx.Key))
	}
	if err := t.Hydrate(); err != nil {
		return nil, err
	}
	bi := &builtIndex{idx: idx, table: t, key: t.ColIndex(idx.Key[0])}
	if bi.key < 0 {
		return nil, fmt.Errorf("engine: index %s references unknown column %s.%s", idx.Name, idx.Table, idx.Key[0])
	}
	for _, k := range idx.Include {
		if t.ColIndex(k) < 0 {
			return nil, fmt.Errorf("engine: index %s includes unknown column %s.%s", idx.Name, idx.Table, k)
		}
	}
	n := t.RowCount()
	bi.typ = t.Columns[bi.key].Typ
	bi.order = make([]int32, n)
	switch bi.typ {
	case rel.TInt:
		ints, nulls, _ := t.IntCol(bi.key)
		bi.firstNonNull = sortRows(bi.order, nulls, ints, cmp.Compare[int64])
		bi.ints = gather(ints, bi.order[bi.firstNonNull:])
	case rel.TFloat:
		floats, nulls, _ := t.FloatCol(bi.key)
		bi.firstNonNull = sortRows(bi.order, nulls, floats, cmp.Compare[float64])
		bi.floats = gather(floats, bi.order[bi.firstNonNull:])
	default:
		codes, dict, nulls, _ := t.StrCol(bi.key)
		rt := ranks.of(dict)
		rank := rt.rank
		bi.firstNonNull = sortRows(bi.order, nulls, codes, func(a, b uint32) int { return cmp.Compare(rank[a], rank[b]) })
		bi.ranks = make([]uint32, n-bi.firstNonNull)
		for i, r := range bi.order[bi.firstNonNull:] {
			bi.ranks[i] = rank[codes[r]]
		}
		bi.strs = rt.strs
	}
	bi.bytes = 12*int64(n) + t.WidthSum(bi.key)
	for _, c := range idx.Include {
		bi.bytes += t.WidthSum(t.ColIndex(c))
	}
	return bi, nil
}

// sortRows fills order with a column's row ids in index order and
// returns how many are NULL. The NULL rows come first, in row id order;
// the others follow, ordered by cmpKey over their keys, then by row id.
// Breaking ties by row id makes the order that of a stable sort.
func sortRows[K any](order []int32, nulls *rel.Bitmap, keys []K, cmpKey func(a, b K) int) int {
	nn := nulls.SetCount()
	i, j := 0, nn
	for r := range order {
		if nn > 0 && nulls.Get(r) {
			order[i] = int32(r)
			i++
		} else {
			order[j] = int32(r)
			j++
		}
	}
	slices.SortFunc(order[nn:], func(a, b int32) int {
		if c := cmpKey(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return nn
}

// gather returns vals[id] for every id, in order.
func gather[K any](vals []K, ids []int32) []K {
	out := make([]K, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	return out
}

// rankRange returns the ranks of the keys equal to s: [lo, lo+1) when s
// is one of the column's strings, else the empty [lo, lo) where the keys
// above s begin.
func (bi *builtIndex) rankRange(s string) (lo, hi uint32) {
	p := sort.SearchStrings(bi.strs, s)
	if p < len(bi.strs) && bi.strs[p] == s {
		return uint32(p), uint32(p + 1)
	}
	return uint32(p), uint32(p)
}

// bound returns the first position with key >= v, or > v when upper,
// among the non-NULL keys, by a search of the typed vector (a string
// probe by its rank range). v is non-NULL and of the key column's type:
// planShape refuses a literal of any other, and join keys are INT on
// both sides (joinKeys).
func (bi *builtIndex) bound(v rel.Value, upper bool) int {
	f := bi.firstNonNull
	switch bi.typ {
	case rel.TInt:
		return f + search(bi.ints, v.I, upper)
	case rel.TFloat:
		return f + search(bi.floats, v.F, upper)
	}
	lo, hi := bi.rankRange(v.S)
	if upper {
		lo = hi
	}
	return f + search(bi.ranks, lo, false)
}

// typedKey is a typed lead vector's element type. cmp.Less and
// cmp.Compare order float64s as rel.CompareFloats does: NaN before every
// other float and equal to itself, -0.0 equal to +0.0.
type typedKey interface{ int64 | float64 | uint32 }

// search returns the first i with keys[i] >= v, or > v when upper, in
// ascending keys.
func search[K typedKey](keys []K, v K, upper bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cmp.Less(keys[m], v) || upper && !cmp.Less(v, keys[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seekInt returns the row ids whose key, an INT, equals k: the
// probe of every hash join, INL join and EXISTS. finger is the position
// the caller's previous probe found, and seekInt moves it to this one's.
// Probe keys mostly arrive non-decreasing — a driver scanned in document
// order probes its children's PIDs, children probe their parents' IDs —
// and move the finger by a few keys, so the search steps forward from
// the finger, gallops once it has passed fingerWindow keys, and runs a
// binary search of the keys before the finger only when k is below
// them. The equal-key run, the few children one parent has, is walked.
// Any finger from 0 to the number of non-NULL keys is valid; a new probe
// sequence starts at 0.
func (bi *builtIndex) seekInt(k int64, finger *int) []int32 {
	keys, lo := bi.ints, *finger
	if lo > 0 && keys[lo-1] >= k {
		lo = search(keys[:lo], k, false)
	} else {
		end := min(lo+fingerWindow, len(keys))
		for lo < end && keys[lo] < k {
			lo++
		}
		if lo == end && lo < len(keys) && keys[lo] < k {
			// Step 1, 2, 4, … on while the keys are below k, then
			// binary-search the last step.
			hi, step := lo, 1
			for hi < len(keys) && keys[hi] < k {
				lo, hi, step = hi+1, hi+step, step*2
			}
			lo += search(keys[lo:min(hi, len(keys))], k, false)
		}
	}
	*finger = lo
	hi := lo
	for hi < len(keys) && keys[hi] == k {
		hi++
	}
	return bi.order[bi.firstNonNull+lo : bi.firstNonNull+hi]
}

// fingerWindow is how many keys seekInt steps past its finger before it
// gallops.
const fingerWindow = 8

// restrict keeps in the index only the rows keep accepts whose
// key, an INT, is non-NULL: a restricted EXISTS probes the inner rows
// that pass its restriction.
func (bi *builtIndex) restrict(keep func(r int) bool) {
	order, ints := bi.order[:0], bi.ints[:0]
	for i, r := range bi.order[bi.firstNonNull:] {
		if keep(int(r)) {
			order, ints = append(order, r), append(ints, bi.ints[i])
		}
	}
	bi.order, bi.ints, bi.firstNonNull = order, ints, 0
}

// seekRange returns row ids for "key op v"; NULL keys never match, and
// a NULL probe value matches nothing (NULL sorts before all keys, so
// bounding against it would otherwise admit every non-NULL row for >
// and >=). op is never <> (planShape). Equality runs both binary
// searches: seek drivers call it once per branch, and ExecuteReference
// calls it for its INL probes, so the reference shares no code with
// seekInt's finger search.
func (bi *builtIndex) seekRange(op sqlast.CmpOp, v rel.Value) []int32 {
	if v.Null {
		return nil
	}
	n := len(bi.order)
	switch op {
	case sqlast.OpEq:
		return bi.order[bi.bound(v, false):bi.bound(v, true)]
	case sqlast.OpLt:
		return bi.order[bi.firstNonNull:bi.bound(v, false)]
	case sqlast.OpLe:
		return bi.order[bi.firstNonNull:bi.bound(v, true)]
	case sqlast.OpGt:
		return bi.order[bi.bound(v, true):n]
	case sqlast.OpGe:
		return bi.order[bi.bound(v, false):n]
	}
	return nil
}
