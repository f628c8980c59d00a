package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/physical"
	"repro/internal/rel"
)

// builtIndex is a sorted permutation of a table's rows by key columns:
// the row ids in index order plus the leading key of every non-NULL
// position, held as one typed vector — int64s, float64s or string ranks
// — so a seek compares scalars and never builds a rel.Value per probe
// step.
type builtIndex struct {
	idx    *physical.Index
	table  *rel.Table
	keyIdx []int
	// order is the table's row ids in index order: rows whose leading key
	// is NULL first, then by leading key, ties broken by the remaining key
	// columns and then by row id — the stable sort of the row ids by
	// Value.Compare over the key columns.
	order []int32
	bytes int64
	// firstNonNull is the first position whose leading key is non-NULL.
	firstNonNull int

	// typ is the leading column's type, which says which vector holds
	// the leading keys. ints, floats and ranks hold the keys of
	// positions firstNonNull onward, so the key at position i is at
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
// key columns.
func buildIndex(t *rel.Table, idx *physical.Index, ranks rankTables) (*builtIndex, error) {
	if len(idx.Key) == 0 {
		return nil, fmt.Errorf("engine: index %s on %s has no key column", idx.Name, idx.Table)
	}
	if err := t.Hydrate(); err != nil {
		return nil, err
	}
	bi := &builtIndex{idx: idx, table: t}
	for _, k := range idx.Key {
		ci := t.ColIndex(k)
		if ci < 0 {
			return nil, fmt.Errorf("engine: index %s references unknown column %s.%s", idx.Name, idx.Table, k)
		}
		bi.keyIdx = append(bi.keyIdx, ci)
	}
	for _, k := range idx.Include {
		if t.ColIndex(k) < 0 {
			return nil, fmt.Errorf("engine: index %s includes unknown column %s.%s", idx.Name, idx.Table, k)
		}
	}
	n := t.RowCount()
	lead := bi.keyIdx[0]
	bi.typ = t.Columns[lead].Typ
	bi.order = make([]int32, n)
	var rest func(a, b int) int
	if len(bi.keyIdx) > 1 {
		rest = t.RowComparator(bi.keyIdx[1:])
	}
	switch bi.typ {
	case rel.TInt:
		ints, nulls, _ := t.IntCol(lead)
		bi.firstNonNull = sortRows(bi.order, nulls, ints, cmp.Compare[int64], rest)
		bi.ints = gather(ints, bi.order[bi.firstNonNull:])
	case rel.TFloat:
		floats, nulls, _ := t.FloatCol(lead)
		bi.firstNonNull = sortRows(bi.order, nulls, floats, cmp.Compare[float64], rest)
		bi.floats = gather(floats, bi.order[bi.firstNonNull:])
	default:
		codes, dict, nulls, _ := t.StrCol(lead)
		rt := ranks.of(dict)
		rank := rt.rank
		bi.firstNonNull = sortRows(bi.order, nulls, codes, func(a, b uint32) int { return cmp.Compare(rank[a], rank[b]) }, rest)
		bi.ranks = make([]uint32, n-bi.firstNonNull)
		for i, r := range bi.order[bi.firstNonNull:] {
			bi.ranks[i] = rank[codes[r]]
		}
		bi.strs = rt.strs
	}
	bi.bytes = 12 * int64(n)
	for _, c := range idx.Key {
		bi.bytes += t.WidthSum(t.ColIndex(c))
	}
	for _, c := range idx.Include {
		bi.bytes += t.WidthSum(t.ColIndex(c))
	}
	return bi, nil
}

// sortRows fills order with a column's row ids in index order and
// returns how many lead with NULL. The NULL-led rows come first, ordered
// by rest and then by row id; the others follow, ordered by cmpKey over
// their keys, then by rest, then by row id. rest compares the remaining
// key columns (nil when there are none). Breaking the last ties by row id
// makes the order that of a stable sort.
func sortRows[K any](order []int32, nulls *rel.Bitmap, keys []K, cmpKey func(a, b K) int, rest func(a, b int) int) int {
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
	tie := cmp.Compare[int32]
	if rest != nil {
		tie = func(a, b int32) int {
			if c := rest(int(a), int(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
		slices.SortFunc(order[:nn], tie)
	}
	slices.SortFunc(order[nn:], func(a, b int32) int {
		if c := cmpKey(keys[a], keys[b]); c != 0 {
			return c
		}
		return tie(a, b)
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

// keyAt returns the leading key at index position i.
func (bi *builtIndex) keyAt(i int) rel.Value {
	if i < bi.firstNonNull {
		return rel.NullOf(bi.typ)
	}
	i -= bi.firstNonNull
	switch bi.typ {
	case rel.TInt:
		return rel.Int(bi.ints[i])
	case rel.TFloat:
		return rel.Float(bi.floats[i])
	}
	return rel.Str(bi.strs[bi.ranks[i]])
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

// bound returns the first position with leading key >= v, or > v when
// upper, among the non-NULL keys. v must be non-NULL. A probe of the
// leading column's own type searches the typed vector (a string probe by
// its rank range); a probe of another type compares keyAt(i) with v.
func (bi *builtIndex) bound(v rel.Value, upper bool) int {
	f := bi.firstNonNull
	if v.Typ == bi.typ {
		switch v.Typ {
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
	return f + sort.Search(len(bi.order)-f, func(i int) bool {
		c := bi.keyAt(f + i).Compare(v)
		return c > 0 || !upper && c == 0
	})
}

// lowerBound returns the first position with leading key >= v (among
// non-NULL keys).
func (bi *builtIndex) lowerBound(v rel.Value) int { return bi.bound(v, false) }

// upperBound returns the first position with leading key > v.
func (bi *builtIndex) upperBound(v rel.Value) int { return bi.bound(v, true) }

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

// seekInt returns the row ids whose leading key, an INT, equals k: the
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

// restrict keeps in the index only the rows keep accepts whose leading
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

// seekRange returns row ids for "leading key op v"; NULL keys never
// match, and a NULL probe value matches nothing (NULL sorts before all
// keys, so bounding against it would otherwise admit every non-NULL
// row for > and >=). Equality runs both binary searches: seek drivers
// call it once per branch, and ExecuteReference calls it for its INL
// probes, so the reference shares no code with seekInt's finger search.
func (bi *builtIndex) seekRange(op opKind, v rel.Value) []int32 {
	if v.Null {
		return nil
	}
	n := len(bi.order)
	switch op {
	case opEq:
		return bi.order[bi.lowerBound(v):bi.upperBound(v)]
	case opLt:
		return bi.order[bi.firstNonNull:bi.lowerBound(v)]
	case opLe:
		return bi.order[bi.firstNonNull:bi.upperBound(v)]
	case opGt:
		return bi.order[bi.upperBound(v):n]
	case opGe:
		return bi.order[bi.lowerBound(v):n]
	}
	return nil
}

type opKind int

const (
	opEq opKind = iota
	opLt
	opLe
	opGt
	opGe
)
