package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// builtCaches holds the plan-lifetime execution structures of a Built:
// join hash tables keyed by (source, column), EXISTS probe sets keyed
// by predicate, and compiled PreparedPlans keyed by plan fingerprint (a
// partition holds nothing: it is a column set of its base table, see
// addPartition). Everything is built lazily on first use and shared
// across repeated executions and across plans over the same Built — the
// operator-state reuse half of the batch executor. Entries are
// single-flighted so parallel union branches never build the same
// structure twice.
//
// Caching is safe because a Built's data is immutable after Build;
// that used to be an unchecked convention, and mutating a table after
// a structure was cached silently served stale results. Every cache
// access now verifies the generation snapshot taken at Build time and
// fails loudly on post-build mutation (see Built.checkGenerations).
// Hit/miss traffic per cache kind is counted unconditionally (plain
// atomics, one add per access) and surfaces through CacheCounters,
// the obs registry, and execution spans. Driver scans and the ExecStats
// accounting are NOT cached — every execution still reads the chunks its
// plan scans (through the pager, on a store-backed Built) and counts the
// rows it reads, so measured execution time keeps the scan/probe cost
// ratio of the substrate and Stats stay bit-identical to the
// row-at-a-time reference executor.
type builtCaches struct {
	mu       sync.Mutex
	joins    map[string]*centry[*joinTable]
	exists   map[string]*centry[*existsSet]
	prepared map[string]*centry[*PreparedPlan]

	stats [ckindCount]cacheStat
}

// ckind indexes the per-kind hit/miss counters.
type ckind int

const (
	ckindJoin ckind = iota
	ckindExists
	ckindPrepared
	ckindCount
)

func (k ckind) String() string {
	switch k {
	case ckindJoin:
		return "join"
	case ckindExists:
		return "exists"
	}
	return "prepared"
}

// cacheStat is one cache kind's traffic counters.
type cacheStat struct {
	hits, misses atomic.Int64
}

func newBuiltCaches() *builtCaches {
	return &builtCaches{
		joins:    make(map[string]*centry[*joinTable]),
		exists:   make(map[string]*centry[*existsSet]),
		prepared: make(map[string]*centry[*PreparedPlan]),
	}
}

// centry is a single-flighted cache entry: the first requester builds,
// everyone else waits on done.
type centry[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// cacheGet serves one single-flighted lookup: exactly one miss is
// counted per key (recorded at reservation, under the lock — waiters
// that raced the builder count as hits), the stale-data guard runs on
// every access, and a miss optionally emits a cache.build span.
//
// Cancellation never poisons an entry: ctx is checked only before an
// entry is reserved and while *waiting* on someone else's build. Once
// this caller has reserved the entry it builds to completion and
// caches the result regardless of ctx, so a cancelled query leaves
// either no entry or a finished one — never a broken or abandoned
// entry — and the next caller gets a warm hit. Internal structure
// lookups during execution (join tables, EXISTS sets) pass
// context.Background() for the same reason: a build already in the
// middle of a pipeline is cheaper to finish than to redo.
func cacheGet[T any](ctx context.Context, b *Built, m map[string]*centry[T], kind ckind, key string, build func() (T, error)) (T, error) {
	var zero T
	if err := b.checkGenerations(); err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	c := b.caches
	c.mu.Lock()
	if e, ok := m[key]; ok {
		c.mu.Unlock()
		c.stats[kind].hits.Add(1)
		b.obsReg.Counter("engine.cache." + kind.String() + ".hits").Inc()
		select {
		case <-e.done:
			return e.v, e.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	e := &centry[T]{done: make(chan struct{})}
	m[key] = e
	c.stats[kind].misses.Add(1)
	c.mu.Unlock()
	b.obsReg.Counter("engine.cache." + kind.String() + ".misses").Inc()
	sp := b.obsTracer.StartSpan("executor.cache.build",
		obs.String("kind", kind.String()), obs.String("key", key))
	e.v, e.err = build()
	if e.err != nil {
		sp.SetAttr(obs.String("error", e.err.Error()))
	}
	sp.End()
	close(e.done)
	return e.v, e.err
}

// CacheCounters reports hit/miss traffic per cache kind (keys like
// "join.hits", "prepared.misses") — always on, no obs attachment
// needed.
func (b *Built) CacheCounters() map[string]int64 {
	out := make(map[string]int64, 2*int(ckindCount))
	for k := ckind(0); k < ckindCount; k++ {
		out[k.String()+".hits"] = b.caches.stats[k].hits.Load()
		out[k.String()+".misses"] = b.caches.stats[k].misses.Load()
	}
	return out
}

// Prepared returns the compiled batch-executor form of the plan,
// compiling it once per plan fingerprint and Built.
func (b *Built) Prepared(plan *optimizer.Plan) (*PreparedPlan, error) {
	return b.PreparedContext(context.Background(), plan)
}

// PreparedContext is Prepared with cancellation: a cancelled ctx aborts
// before reserving a cache entry or while waiting on another caller's
// in-flight compilation, but never abandons a compilation this caller
// started (see cacheGet).
func (b *Built) PreparedContext(ctx context.Context, plan *optimizer.Plan) (*PreparedPlan, error) {
	return cacheGet(ctx, b, b.caches.prepared, ckindPrepared, plan.Fingerprint(), func() (*PreparedPlan, error) {
		sp := b.obsTracer.StartSpan("executor.prepare",
			obs.String("fingerprint", plan.Fingerprint()),
			obs.Int("branches", int64(len(plan.Branches))))
		pp, err := Prepare(b, plan)
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
		} else {
			var ops int
			for _, br := range pp.branches {
				ops += len(br.ops)
			}
			sp.SetAttr(obs.Int("operators", int64(ops)))
		}
		sp.End()
		return pp, err
	})
}

// joinTable is a cached hash-join build side: the key column's chains
// over build positions, and nothing else. The build side is always a
// whole source, so build position i is the source's row i, the row id
// the probe emits; the pipeline carries row ids, so the table holds no
// rows. Two cells join when their string forms are equal. When both key
// columns are declared INT (the ID/PID case, see intJoin) that is int
// equality, and the table keys by the int itself, in the chained
// head/next layout of the reference executor — probing walks a chain in
// the same (reverse-build) order, so join output ordering is
// bit-identical. Shredded IDs come from one document-order counter, so
// such a column is dense: when its value span is at most denseSpan × its
// row count, head is a []int32 indexed by key − lo (dense); otherwise a
// map. Any other pair of columns keys by string form and maps each key
// to its build positions in build order, likewise matching the
// reference.
type joinTable struct {
	intKeys bool
	lo      int64
	dense   []int32
	head    map[int64]int32
	next    []int32
	str     map[string][]int32
}

// denseSpan bounds the key span, in multiples of the row count, up to
// which an int-keyed join table indexes its chain heads by offset.
const denseSpan = 8

// first returns the build position that heads key k's chain, -1 when
// no row has k. An offset taken in uint64 wraps any k below lo past
// the end, so keys at the int64 extremes cannot overflow.
func (jt *joinTable) first(k int64) int32 {
	if jt.dense != nil {
		if off := uint64(k) - uint64(jt.lo); off < uint64(len(jt.dense)) {
			return jt.dense[off]
		}
		return -1
	}
	if i, ok := jt.head[k]; ok {
		return i
	}
	return -1
}

// probe calls yield with every build position v joins, in the order the
// reference executor's hash join emits them. v is a cell of the probe
// side's key column, so an int-keyed table is probed with an int.
func (jt *joinTable) probe(v rel.Value, yield func(m int32)) {
	if v.Null {
		return
	}
	if jt.intKeys {
		for m := jt.first(v.I); m >= 0; m = jt.next[m] {
			yield(m)
		}
		return
	}
	for _, m := range jt.str[v.String()] {
		yield(m)
	}
}

// intJoin reports whether join key columns match as ints: each names a
// column of a table or view of b declared INT. Any other pair matches by
// string form.
func intJoin(b *Built, cols ...sqlast.ColRef) bool {
	for _, c := range cols {
		t := resolveTable(b, c.Table)
		if t == nil {
			return false
		}
		if col := t.Column(c.Column); col == nil || col.Typ != rel.TInt {
			return false
		}
	}
	return true
}

// buildJoinTable indexes the rows of column col of t, which is resident,
// by int when intKeys (the column is then INT) and by string form
// otherwise.
func buildJoinTable(t *rel.Table, col int, intKeys bool) *joinTable {
	if intKeys {
		ints, nulls, _ := t.IntCol(col)
		lo, hi := intSpan(ints, nulls)
		return buildIntJoinTable(ints, nulls, lo, hi, uint64(hi)-uint64(lo) <= denseSpan*uint64(len(ints)))
	}
	n := t.RowCount()
	jt := &joinTable{str: make(map[string][]int32, n)}
	for i := 0; i < n; i++ {
		if v := t.ValueAt(i, col); !v.Null {
			k := v.String()
			jt.str[k] = append(jt.str[k], int32(i))
		}
	}
	return jt
}

// intSpan returns the least and the greatest non-NULL key of an int
// column's vector, both 0 when every key is NULL.
func intSpan(ints []int64, nulls *rel.Bitmap) (lo, hi int64) {
	seen := false
	for i, k := range ints {
		if nulls.Any() && nulls.Get(i) {
			continue
		}
		if !seen || k < lo {
			lo = k
		}
		if !seen || k > hi {
			hi = k
		}
		seen = true
	}
	return lo, hi
}

// buildIntJoinTable chains the rows of an int column whose non-NULL keys
// lie in [lo, hi], heads indexed by offset when dense.
func buildIntJoinTable(ints []int64, nulls *rel.Bitmap, lo, hi int64, dense bool) *joinTable {
	jt := &joinTable{intKeys: true, lo: lo, next: make([]int32, len(ints))}
	if dense {
		jt.dense = make([]int32, uint64(hi)-uint64(lo)+1)
		for i := range jt.dense {
			jt.dense[i] = -1
		}
	} else {
		jt.head = make(map[int64]int32, len(ints))
	}
	for i, k := range ints {
		jt.next[i] = -1
		if nulls.Any() && nulls.Get(i) {
			continue
		}
		if dense {
			off := uint64(k) - uint64(lo)
			jt.next[i] = jt.dense[off]
			jt.dense[off] = int32(i)
			continue
		}
		if prev, ok := jt.head[k]; ok {
			jt.next[i] = prev
		}
		jt.head[k] = int32(i)
	}
	return jt
}

// hashJoinTable returns the cached build side for joining against
// column col of the named row source, keyed by int when intKeys. srcKey
// identifies the row source (base table or view; a partition is its base
// table) within the Built, and t is its resident table.
func (b *Built) hashJoinTable(srcKey string, t *rel.Table, col int, intKeys bool) (*joinTable, error) {
	key := srcKey + "|c:" + t.Columns[col].Name
	if !intKeys && t.Columns[col].Typ == rel.TInt {
		key += "|str" // an INT column joined to a column of another type
	}
	return cacheGet(context.Background(), b, b.caches.joins, ckindJoin, key, func() (*joinTable, error) {
		return buildJoinTable(t, col, intKeys), nil
	})
}

// existsSet is a cached EXISTS semi-join probe set with the same
// int-keyed fast path as the hash join: when the inner join column and
// the outer column are both declared INT, it probes a map[int64]
// directly instead of stringifying every value.
type existsSet struct {
	ints map[int64]bool
	strs map[string]bool
}

func (e *existsSet) match(v rel.Value) bool {
	if v.Null {
		return false
	}
	if e.ints != nil {
		return e.ints[v.I]
	}
	return e.strs[v.String()]
}

// existsProbeSet returns the cached probe set for an EXISTS predicate.
// The key is the predicate's canonical SQL rendering, which pins the
// inner table, join column, and any inner-value restriction — the same
// identity the reference executor's per-execution cache uses.
func (b *Built) existsProbeSet(p *sqlast.Pred) (*existsSet, error) {
	return cacheGet(context.Background(), b, b.caches.exists, ckindExists, "exists:"+p.String(), func() (*existsSet, error) {
		return buildExistsSet(b, p)
	})
}

// buildExistsSet builds the probe set of an EXISTS predicate from the
// one or two columns of the inner table it names; both executors build
// theirs here.
func buildExistsSet(b *Built, p *sqlast.Pred) (*existsSet, error) {
	t := b.DB.Table(p.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: EXISTS over unknown table %s", p.Table)
	}
	if err := t.Hydrate(); err != nil {
		return nil, err
	}
	ji := t.ColIndex(p.JoinCol)
	if ji < 0 {
		return nil, fmt.Errorf("engine: EXISTS join column %s.%s missing", p.Table, p.JoinCol)
	}
	vi := -1
	if p.InnerCol != "" {
		vi = t.ColIndex(p.InnerCol)
		if vi < 0 {
			return nil, fmt.Errorf("engine: EXISTS value column %s.%s missing", p.Table, p.InnerCol)
		}
	}
	e := &existsSet{}
	if intJoin(b, sqlast.ColRef{Table: p.Table, Column: p.JoinCol}, p.OuterCol) {
		e.ints = make(map[int64]bool)
	} else {
		e.strs = make(map[string]bool)
	}
	for r, n := 0, t.RowCount(); r < n; r++ {
		k := t.ValueAt(r, ji)
		if k.Null || vi >= 0 && !matchCompare(t.ValueAt(r, vi), p.Op, p.Value) {
			continue
		}
		if e.ints != nil {
			e.ints[k.I] = true
		} else {
			e.strs[k.String()] = true
		}
	}
	return e, nil
}

// CachedStructures reports the cache population (join tables, exists
// sets, prepared plans) — observability for tests and tools.
func (b *Built) CachedStructures() map[string]int {
	b.caches.mu.Lock()
	defer b.caches.mu.Unlock()
	return map[string]int{
		"joinTables": len(b.caches.joins),
		"existsSets": len(b.caches.exists),
		"prepared":   len(b.caches.prepared),
	}
}

// CacheKeys returns the sorted join-table cache keys (test hook).
func (b *Built) CacheKeys() []string {
	b.caches.mu.Lock()
	defer b.caches.mu.Unlock()
	keys := make([]string, 0, len(b.caches.joins))
	for k := range b.caches.joins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
