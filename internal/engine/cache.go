package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/par"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// builtCaches holds the plan-lifetime execution structures of a Built:
// key indexes of hash joins keyed by (source, column), the indexes of
// EXISTS keyed by predicate, and
// compiled PreparedPlans keyed by plan fingerprint (a
// partition holds nothing: it is a column set of its base table, see
// addPartition). Everything is built lazily on first use and shared
// across repeated executions and across plans over the same Built — the
// operator-state reuse half of the batch executor. Each cache is a
// par.Memo, so parallel union branches never build the same structure
// twice.
//
// Caching is safe because a Built's data is immutable after Build;
// that used to be an unchecked convention, and mutating a table after
// a structure was cached silently served stale results. Every cache
// access now verifies the row counts snapshotted at Build time (a table
// only grows) and fails loudly on a post-build append (see
// Built.checkGenerations).
// Hit/miss traffic per cache kind is counted unconditionally (plain
// atomics, one add per access) and surfaces through CacheCounters,
// the obs registry, and execution spans. Driver scans and the ExecStats
// accounting are NOT cached — every execution still reads the chunks its
// plan scans (through the pager, on a store-backed Built) and counts the
// rows it reads, so measured execution time keeps the scan/probe cost
// ratio of the substrate and Stats stay bit-identical to the
// row-at-a-time reference executor.
type builtCaches struct {
	joins    par.Memo[string, *builtIndex]
	exists   par.Memo[string, *builtIndex]
	prepared par.Memo[string, *PreparedPlan]

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

// cacheStat is one cache kind's traffic counters: always-on atomics,
// and their registry mirrors, resolved once by AttachObs (nil: none).
type cacheStat struct {
	hits, misses       atomic.Int64
	regHits, regMisses *obs.Counter
}

// cacheGet serves one lookup of a structure cache, a par.Memo (whose
// rules a build follows, panics included): the stale-data guard runs on
// every access, a miss is counted when its build starts and emits an
// executor.cache.build span, and every other lookup — callers that
// waited on the build among them — counts a hit.
//
// ctx is checked before the lookup and while waiting on another
// caller's build, never during this caller's own build, so a cancelled
// query leaves either no entry or a finished one and the next caller
// gets a warm hit. Internal structure lookups during execution (key
// indexes) pass context.Background() for the same reason: a build
// already in the middle of a pipeline is cheaper to finish than to
// redo.
func cacheGet[T any](ctx context.Context, b *Built, m *par.Memo[string, T], kind ckind, key string, build func() (T, error)) (T, error) {
	var zero T
	if err := b.checkGenerations(); err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	st := &b.caches.stats[kind]
	v, computed, err := m.Do(ctx, key, func() (v T, err error) {
		st.misses.Add(1)
		st.regMisses.Inc()
		sp := b.obsTracer.StartSpan("executor.cache.build",
			obs.String("kind", kind.String()), obs.String("key", key))
		err = par.ErrPanicked // what the span records if build panics
		defer func() {
			if err != nil {
				sp.SetAttr(obs.String("error", err.Error()))
			}
			sp.End()
		}()
		return build()
	})
	if !computed {
		st.hits.Add(1)
		st.regHits.Inc()
	}
	return v, err
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
	return cacheGet(ctx, b, &b.caches.prepared, ckindPrepared, plan.Fingerprint(), func() (*PreparedPlan, error) {
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

// intKey refuses a join or EXISTS key column c of t that is not INT.
// Every join translate, physdesign and views emit is PID = ID, and a
// column holds one type, so both executors match keys as int64s alone
// and refuse any other pair with this one error. A column t lacks is
// left to the caller's own check.
func intKey(t *rel.Table, c string) error {
	if col := t.Column(c); col != nil && col.Typ != rel.TInt {
		return fmt.Errorf("engine: join key %s.%s is %s; join and EXISTS keys must be INT on both sides", t.Name, c, col.Typ)
	}
	return nil
}

// joinKeys is intKey for the key columns of a join or an EXISTS, each
// naming a table or view of b.
func joinKeys(b *Built, cols ...sqlast.ColRef) error {
	for _, c := range cols {
		if t := resolveTable(b, c.Table); t != nil {
			if err := intKey(t, c.Column); err != nil {
				return err
			}
		}
	}
	return nil
}

// inlIndex returns the index an INL join probes, which must lead on the
// join's inner column.
func inlIndex(b *Built, j optimizer.Join) (*builtIndex, error) {
	bi := b.Index(j.Inner.Index)
	if bi == nil {
		return nil, fmt.Errorf("engine: INL index %s not built", j.Inner.Index.Name)
	}
	if lead := j.Inner.Index.Key[0]; lead != j.InnerCol.Column {
		return nil, fmt.Errorf("engine: INL index %s leads on %s, not on the join column %s", j.Inner.Index.Name, lead, j.InnerCol)
	}
	return bi, nil
}

// keyIndex returns the cached one-column index over column col of the
// named row source, a hash join's build side. srcKey identifies the row
// source (base table or view; a partition is its base table) within the
// Built, and t is its resident table. The column is INT (see joinKeys), and a
// key's rows come out in row id order: document order, as an INL join's
// index returns them.
func (b *Built) keyIndex(srcKey string, t *rel.Table, col int) (*builtIndex, error) {
	key := srcKey + "|c:" + t.Columns[col].Name
	return cacheGet(context.Background(), b, &b.caches.joins, ckindJoin, key, func() (*builtIndex, error) {
		return buildIndex(t, &physical.Index{Name: key, Table: t.Name, Key: []string{t.Columns[col].Name}}, rankTables{})
	})
}

// existsColumns resolves the inner table of an EXISTS predicate, the
// index of its join column and of its value column, and refuses keys
// that are not INT; both executors read their EXISTS here.
func existsColumns(b *Built, p *sqlast.Pred) (t *rel.Table, ji, vi int, err error) {
	if t = b.DB.Table(p.Table); t == nil {
		return nil, 0, 0, fmt.Errorf("engine: EXISTS over unknown table %s", p.Table)
	}
	if err := t.Hydrate(); err != nil {
		return nil, 0, 0, err
	}
	if ji = t.ColIndex(p.JoinCol); ji < 0 {
		return nil, 0, 0, fmt.Errorf("engine: EXISTS join column %s.%s missing", p.Table, p.JoinCol)
	}
	if vi = t.ColIndex(p.InnerCol); vi < 0 {
		return nil, 0, 0, fmt.Errorf("engine: EXISTS value column %s.%s missing", p.Table, p.InnerCol)
	}
	if err := joinKeys(b, sqlast.ColRef{Table: p.Table, Column: p.JoinCol}, p.OuterCol); err != nil {
		return nil, 0, 0, err
	}
	return t, ji, vi, nil
}

// existsIndex returns the cached probe index of an EXISTS predicate: an
// index on the inner join column of only the inner rows that pass the
// EXISTS's restriction, keyed by the predicate's canonical SQL rendering
// (which pins the inner table, join column and restriction).
func (b *Built) existsIndex(p *sqlast.Pred) (*builtIndex, error) {
	t, _, vi, err := existsColumns(b, p)
	if err != nil {
		return nil, err
	}
	return cacheGet(context.Background(), b, &b.caches.exists, ckindExists, "exists:"+p.String(), func() (*builtIndex, error) {
		bi, err := buildIndex(t, &physical.Index{Name: p.String(), Table: p.Table, Key: []string{p.JoinCol}}, rankTables{})
		if err == nil {
			bi.restrict(func(r int) bool { return matchCompare(t.ValueAt(r, vi), p.Op, p.Value) })
		}
		return bi, err
	})
}

// CachedStructures reports the cache population (join key indexes,
// EXISTS indexes, prepared plans) — observability for tests
// and tools.
func (b *Built) CachedStructures() map[string]int {
	return map[string]int{
		"joinTables": b.caches.joins.Len(),
		"existsSets": b.caches.exists.Len(),
		"prepared":   b.caches.prepared.Len(),
	}
}

// CacheKeys returns the sorted join key index cache keys (test hook).
func (b *Built) CacheKeys() []string {
	keys := b.caches.joins.Keys()
	sort.Strings(keys)
	return keys
}
