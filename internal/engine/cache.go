package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
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

// joinTable is a cached hash-join build side: the key column's hash
// chains over build positions, and nothing else. The build side is
// always a whole source, so build position i is the source's row i,
// the row id the probe emits. The probe fills the
// inner columns a query references from the source's column vectors (see
// colFill), so the table holds no rows. Integer keys (the common ID/PID
// case) use the chained head/next layout of the reference executor —
// probing walks the chain in the same (reverse-build) order, so join
// output ordering is bit-identical. String keys map to build positions
// in build order, likewise matching the reference.
type joinTable struct {
	intKeys bool
	head    map[int64]int32
	next    []int32
	str     map[string][]int32
}

// buildJoinTable hashes the n build positions by key(i), the join
// column's value at position i.
func buildJoinTable(n int, key func(i int) rel.Value) *joinTable {
	jt := &joinTable{}
	jt.intKeys = n == 0 || key(0).Typ == rel.TInt
	if jt.intKeys {
		jt.head = make(map[int64]int32, n)
		jt.next = make([]int32, n)
		for i := 0; i < n; i++ {
			v := key(i)
			if v.Null {
				jt.next[i] = -1
				continue
			}
			if prev, ok := jt.head[v.I]; ok {
				jt.next[i] = prev
			} else {
				jt.next[i] = -1
			}
			jt.head[v.I] = int32(i)
		}
		return jt
	}
	jt.str = make(map[string][]int32, n)
	for i := 0; i < n; i++ {
		v := key(i)
		if v.Null {
			continue
		}
		k := v.String()
		jt.str[k] = append(jt.str[k], int32(i))
	}
	return jt
}

// hashJoinTable returns the cached build side for joining against the
// named row source on the given column. srcKey identifies the row
// source (base table or view; a partition is its base table) within the
// Built; n and key describe its join column.
func (b *Built) hashJoinTable(srcKey, col string, n int, key func(i int) rel.Value) (*joinTable, error) {
	return cacheGet(context.Background(), b, b.caches.joins, ckindJoin, srcKey+"|c:"+col, func() (*joinTable, error) {
		return buildJoinTable(n, key), nil
	})
}

// existsSet is a cached EXISTS semi-join probe set with the same
// int-keyed fast path as the hash join: declared-integer join columns
// probe a map[int64] directly instead of stringifying every value.
type existsSet struct {
	ints map[int64]bool
	strs map[string]bool
}

func (e *existsSet) match(v rel.Value) bool {
	if v.Null {
		return false
	}
	if e.ints != nil {
		if v.Typ == rel.TInt {
			return e.ints[v.I]
		}
		return matchIntSetString(e.ints, v)
	}
	return e.strs[v.String()]
}

// matchIntSetString resolves a non-integer probe against an int-keyed
// set: it matches exactly when the probe's string form is the
// canonical decimal rendering of a present key.
func matchIntSetString(set map[int64]bool, v rel.Value) bool {
	s := v.String()
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil || strconv.FormatInt(i, 10) != s {
		return false
	}
	return set[i]
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
	if t.Columns[ji].Typ == rel.TInt {
		if ints, ok := buildIntExists(t, ji, vi, p); ok {
			return &existsSet{ints: ints}, nil
		}
	}
	return &existsSet{strs: buildStrExists(t, ji, vi, p)}, nil
}

// buildIntExists builds an int-keyed EXISTS probe set over join column
// ji of t, restricted by p on value column vi when vi >= 0; ok is false
// when a non-integer value appears in the declared-int join column (the
// caller then falls back to string keys, preserving the exact
// stringified-key semantics).
func buildIntExists(t *rel.Table, ji, vi int, p *sqlast.Pred) (map[int64]bool, bool) {
	set := make(map[int64]bool)
	for r, n := 0, t.RowCount(); r < n; r++ {
		k := t.ValueAt(r, ji)
		if k.Null {
			continue
		}
		if k.Typ != rel.TInt {
			return nil, false
		}
		if vi >= 0 && !matchCompare(t.ValueAt(r, vi), p.Op, p.Value) {
			continue
		}
		set[k.I] = true
	}
	return set, true
}

func buildStrExists(t *rel.Table, ji, vi int, p *sqlast.Pred) map[string]bool {
	set := make(map[string]bool)
	for r, n := 0, t.RowCount(); r < n; r++ {
		k := t.ValueAt(r, ji)
		if k.Null {
			continue
		}
		if vi >= 0 && !matchCompare(t.ValueAt(r, vi), p.Op, p.Value) {
			continue
		}
		set[k.String()] = true
	}
	return set
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
