// Package engine materializes physical configurations over loaded
// relational data (indexes, materialized join views, vertical
// partitions) and executes the optimizer's plans for real — the
// "execution time" numbers of the evaluation come from this engine.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/rel"
)

// Built holds materialized physical structures over a database.
type Built struct {
	// DB is the underlying data.
	DB *rel.Database
	// Config is the configuration that was built.
	Config *physical.Config
	// StructBytes is the total size of materialized structures.
	StructBytes int64

	indexes map[string]*builtIndex // by index ID
	views   map[string]*rel.Table
	caches  *builtCaches          // plan-lifetime execution structures
	sources map[string]ScanSource // driver-stage chunk sources by table

	// gens snapshots every reachable table's row count at Build time: a
	// table only grows, so its row count is its generation, and the
	// structure caches refuse to serve after any table grows past its
	// snapshot (see checkGenerations).
	gens map[*rel.Table]int

	// obsTracer and obsReg are the optional observability sinks set by
	// AttachObs; both are nil-safe no-ops when unset.
	obsTracer *obs.Tracer
	obsReg    *obs.Registry
}

// AttachObs wires a tracer and metrics registry into the executor:
// structure builds, plan compiles, and executions emit spans on tr,
// and cache/execution traffic mirrors into reg. Either may be nil
// (disabled). Attach before executing; spans and counters only cover
// activity after the call.
func (b *Built) AttachObs(tr *obs.Tracer, reg *obs.Registry) {
	b.obsTracer = tr
	b.obsReg = reg
	for k := ckind(0); k < ckindCount; k++ {
		st := &b.caches.stats[k]
		st.regHits = reg.Counter("engine.cache." + k.String() + ".hits")
		st.regMisses = reg.Counter("engine.cache." + k.String() + ".misses")
	}
}

// snapshotGenerations records the Build-time row count of every table
// the executor can read: base tables and materialized views.
func (b *Built) snapshotGenerations() {
	b.gens = make(map[*rel.Table]int)
	for _, t := range b.DB.Tables() {
		b.gens[t] = t.RowCount()
	}
	for _, vt := range b.views {
		b.gens[vt] = vt.RowCount()
	}
}

// checkGenerations fails if any table grew after Build. The
// plan-lifetime caches (join and EXISTS key indexes, prepared plans)
// are derived from Build-time rows; serving them over mutated data
// would silently return stale results, so the stale state is an error,
// not a refresh.
func (b *Built) checkGenerations() error {
	for t, g := range b.gens {
		if cur := t.RowCount(); cur != g {
			return fmt.Errorf("engine: table %s mutated after Build (%d rows, snapshot %d); cached execution structures would be stale — rebuild the configuration", t.Name, cur, g)
		}
	}
	return nil
}

// Build materializes every structure in the configuration over the
// database. The configuration may come from outside the program
// (a store's manifest), so one that does not fit the database — an
// unknown table or column, an index without a key, a view or partition
// over a table without ID/PID — is an error, never a panic.
func Build(db *rel.Database, cfg *physical.Config) (*Built, error) {
	if cfg == nil {
		cfg = &physical.Config{}
	}
	if slices.Contains(cfg.Indexes, nil) || slices.Contains(cfg.Views, nil) || slices.Contains(cfg.Partitions, nil) {
		return nil, errors.New("engine: configuration lists a null index, view or partition")
	}
	b := &Built{
		DB:      db,
		Config:  cfg,
		indexes: make(map[string]*builtIndex),
		views:   make(map[string]*rel.Table),
		caches:  new(builtCaches),
	}
	ranks := rankTables{}
	for _, idx := range cfg.Indexes {
		t := db.Table(idx.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: index %s on unknown table %s", idx.Name, idx.Table)
		}
		bi, err := buildIndex(t, idx, ranks)
		if err != nil {
			return nil, err
		}
		b.indexes[idx.ID()] = bi
		b.StructBytes += bi.bytes
	}
	for _, v := range cfg.Views {
		vt, err := buildView(db, v)
		if err != nil {
			return nil, err
		}
		b.views[v.Name] = vt
		b.StructBytes += vt.Bytes()
	}
	// A partition is a column set of its base table, not a copy: Build
	// only checks its names, and a partition scan reads the table's own
	// columns. The accounting still charges the replicated keys a
	// partitioned design stores per group.
	for _, vp := range cfg.Partitions {
		t, groups, err := partitionColumns(db, vp)
		if err != nil {
			return nil, err
		}
		b.StructBytes += 16 * int64(t.RowCount()) * int64(len(groups))
	}
	b.snapshotGenerations()
	return b, nil
}

// Index returns the built index for a descriptor, or nil.
func (b *Built) Index(idx *physical.Index) *builtIndex {
	return b.indexes[idx.ID()]
}

// ViewTable returns the materialized view table, or nil.
func (b *Built) ViewTable(name string) *rel.Table { return b.views[name] }

// partitionColumns resolves a partition's groups to column indices of
// its base table, each group led by the ID and PID it replicates. It
// reads the schema alone, so a paged table stays unhydrated.
func partitionColumns(db *rel.Database, vp *physical.VPartition) (*rel.Table, [][]int, error) {
	if vp == nil {
		return nil, nil, errors.New("engine: partition access to an unpartitioned table")
	}
	t := db.Table(vp.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("engine: partition of unknown table %s", vp.Table)
	}
	id, pid := t.ColIndex(rel.IDColumn), t.ColIndex(rel.PIDColumn)
	if id < 0 || pid < 0 {
		return nil, nil, fmt.Errorf("engine: partition of %s, which has no %s/%s columns to replicate",
			vp.Table, rel.IDColumn, rel.PIDColumn)
	}
	groups := make([][]int, len(vp.Groups))
	for gi, group := range vp.Groups {
		idxs := []int{id, pid}
		for _, c := range group {
			ci := t.ColIndex(c)
			if ci < 0 {
				return nil, nil, fmt.Errorf("engine: partition group references unknown column %s.%s", vp.Table, c)
			}
			if slices.Contains(idxs, ci) {
				return nil, nil, fmt.Errorf("engine: %s lists column %s twice", vp.GroupTable(gi), c)
			}
			idxs = append(idxs, ci)
		}
		groups[gi] = idxs
	}
	return t, groups, nil
}

// newStructTable is rel.NewTable for a view, whose columns a
// configuration names: a column listed twice is the configuration's
// error, where NewTable would panic.
func newStructTable(name string, cols []rel.Column) (*rel.Table, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("engine: %s lists column %s twice", name, c.Name)
		}
		seen[c.Name] = true
	}
	return rel.NewTable(name, cols), nil
}

// buildView materializes a parent-child join view: for every inner row
// whose PID matches an outer ID, one row with the carried columns named
// table__col.
func buildView(db *rel.Database, v *physical.View) (*rel.Table, error) {
	outer, inner := db.Table(v.Outer), db.Table(v.Inner)
	if outer == nil || inner == nil {
		return nil, fmt.Errorf("engine: view %s references unknown tables %s/%s", v.Name, v.Outer, v.Inner)
	}
	if err := outer.Hydrate(); err != nil {
		return nil, err
	}
	if err := inner.Hydrate(); err != nil {
		return nil, err
	}
	var cols []rel.Column
	var outerIdx, innerIdx []int
	for _, c := range v.OuterCols {
		ci := outer.ColIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("engine: view %s references unknown column %s.%s", v.Name, v.Outer, c)
		}
		col := outer.Columns[ci]
		col.Name = v.Outer + "__" + c
		cols = append(cols, col)
		outerIdx = append(outerIdx, ci)
	}
	for _, c := range v.InnerCols {
		ci := inner.ColIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("engine: view %s references unknown column %s.%s", v.Name, v.Inner, c)
		}
		col := inner.Columns[ci]
		col.Name = v.Inner + "__" + c
		cols = append(cols, col)
		innerIdx = append(innerIdx, ci)
	}
	oid, pid := outer.ColIndex(rel.IDColumn), inner.ColIndex(rel.PIDColumn)
	if oid < 0 || pid < 0 {
		return nil, fmt.Errorf("engine: view %s joins %s.%s to %s.%s, and one of them is missing",
			v.Name, v.Inner, rel.PIDColumn, v.Outer, rel.IDColumn)
	}
	vt, err := newStructTable(v.Name, cols)
	if err != nil {
		return nil, err
	}
	// The view holds what the hash join it replaces returns: each inner row
	// matched to every outer row its PID joins, through the join's own key
	// index, in document order.
	if err := intKey(outer, rel.IDColumn); err != nil {
		return nil, err
	}
	if err := intKey(inner, rel.PIDColumn); err != nil {
		return nil, err
	}
	bi, err := buildIndex(outer, &physical.Index{Name: v.Name, Table: v.Outer, Key: []string{rel.IDColumn}}, rankTables{})
	if err != nil {
		return nil, err
	}
	pids, nulls, _ := inner.IntCol(pid)
	out := make([]rel.Value, 0, len(cols)) // AppendRow copies, so one scratch row suffices
	finger := 0
	for ir := range pids {
		if nulls.Any() && nulls.Get(ir) {
			continue
		}
		for _, or := range bi.seekInt(pids[ir], &finger) {
			out = out[:0]
			for _, ci := range outerIdx {
				out = append(out, outer.ValueAt(int(or), ci))
			}
			for _, ci := range innerIdx {
				out = append(out, inner.ValueAt(ir, ci))
			}
			vt.AppendRow(out)
		}
	}
	return vt, nil
}
