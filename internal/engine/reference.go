package engine

import (
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// ExecuteReference runs an optimizer plan with the original
// row-at-a-time executor: every intermediate fully materialized,
// per-execution probe structures, sequential branches. It is retained
// as the correctness oracle for the batch executor — difftest and the
// equivalence tests assert that Execute produces bit-identical
// Cols/Rows/Stats — and as the "seed" side of the executor benchmarks.
func ExecuteReference(b *Built, plan *optimizer.Plan) (*Result, error) {
	if err := planShape(b, plan); err != nil {
		return nil, err
	}
	pos, err := orderKey(b, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: plan.Query.OutputColumns()}
	for _, br := range plan.Branches {
		res.Stats.Branches++
		rows, err := execBranch(b, br, &res.Stats)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	sortResult(res, pos)
	return res, nil
}

// execBranch runs one branch plan.
func execBranch(b *Built, br *optimizer.Branch, st *ExecStats) ([][]rel.Value, error) {
	sc := newScope()
	cols, rows, err := fetchAccess(b, br.Sel, br.Driver, st)
	if err != nil {
		return nil, err
	}
	sc.add(br.Driver.Table, cols)
	applied := make(map[int]bool)
	ex := &existsCache{b: b}
	rows, err = applyPreds(b, br.Sel, sc, rows, applied, ex, br.Driver.SeekPred)
	if err != nil {
		return nil, err
	}
	for _, j := range br.Joins {
		rows, err = execJoin(b, br.Sel, sc, rows, j, st)
		if err != nil {
			return nil, err
		}
		rows, err = applyPreds(b, br.Sel, sc, rows, applied, ex, br.Driver.SeekPred)
		if err != nil {
			return nil, err
		}
	}
	// Verify every predicate was applied (defensive: plans must cover
	// all conjuncts).
	for i := range br.Sel.Where {
		p := &br.Sel.Where[i]
		if p.Kind == sqlast.PredJoin || applied[i] || p == br.Driver.SeekPred {
			continue
		}
		return nil, fmt.Errorf("engine: predicate %s left unapplied", p)
	}
	// Projection.
	out := make([][]rel.Value, 0, len(rows))
	type proj struct {
		pos  int
		null bool
	}
	projs := make([]proj, len(br.Sel.Items))
	for i, it := range br.Sel.Items {
		if it.Col == nil {
			projs[i] = proj{null: true}
			continue
		}
		pos, err := sc.pos(*it.Col)
		if err != nil {
			return nil, err
		}
		projs[i] = proj{pos: pos}
	}
	for _, r := range rows {
		o := make([]rel.Value, len(projs))
		for i, p := range projs {
			if p.null {
				o[i] = rel.NullOf(rel.TString)
			} else {
				o[i] = r[p.pos]
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// fetchAccess materializes the rows of an access path as combined
// tuples (a fresh slice of column names plus row slices).
func fetchAccess(b *Built, s *sqlast.Select, a optimizer.Access, st *ExecStats) ([]string, [][]rel.Value, error) {
	if len(a.Groups) > 0 {
		return fetchPartition(b, a, st)
	}
	var t *rel.Table
	if vt := b.ViewTable(a.Table); vt != nil {
		t = vt
	} else {
		t = b.DB.Table(a.Table)
	}
	if t == nil {
		return nil, nil, fmt.Errorf("engine: unknown table %s", a.Table)
	}
	if err := t.Hydrate(); err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	if a.Kind == optimizer.AccessSeek {
		bi := b.Index(a.Index)
		if bi == nil {
			return nil, nil, fmt.Errorf("engine: index %s not built", a.Index.Name)
		}
		ids := bi.seekRange(a.SeekPred.Op, a.SeekPred.Value)
		rows := make([][]rel.Value, len(ids))
		for i, id := range ids {
			rows[i] = make([]rel.Value, len(cols))
			t.ReadRowInto(rows[i], int(id))
		}
		if st != nil {
			st.RowsSought += int64(len(rows))
		}
		return cols, rows, nil
	}
	trows := t.Rows()
	if st != nil {
		st.RowsScanned += int64(len(trows))
	}
	return cols, trows, nil
}

// fetchPartition zips the needed partition groups into combined rows.
// Like every other fetch here it builds what it reads on each call: the
// group tables, copies of the base table's columns, so the oracle zips
// real copies where the batch executor reads the base table itself.
func fetchPartition(b *Built, a optimizer.Access, st *ExecStats) ([]string, [][]rel.Value, error) {
	gts, err := buildPartition(b.DB, b.Config.PartitionOf(a.Table))
	if err != nil {
		return nil, nil, err
	}
	var cols []string
	type src struct {
		rows [][]rel.Value
		ci   int
	}
	var srcs []src
	seen := make(map[string]bool)
	for _, g := range a.Groups {
		if g < 0 || g >= len(gts) {
			return nil, nil, fmt.Errorf("engine: %s has no partition group %d", a.Table, g)
		}
		grows := gts[g].Rows()
		for ci, c := range gts[g].Columns {
			if !seen[c.Name] {
				seen[c.Name] = true
				cols = append(cols, c.Name)
				srcs = append(srcs, src{grows, ci})
			}
		}
	}
	rows := make([][]rel.Value, gts[0].RowCount())
	for i := range rows {
		rows[i] = make([]rel.Value, len(srcs))
		for k, sr := range srcs {
			rows[i][k] = sr.rows[i][sr.ci]
		}
	}
	if st != nil {
		st.RowsScanned += int64(len(rows) * len(a.Groups))
	}
	return cols, rows, nil
}

// buildPartition splits a table vertically; group rows stay aligned
// with the base table's row order and replicate ID and PID.
func buildPartition(db *rel.Database, vp *physical.VPartition) ([]*rel.Table, error) {
	t, groups, err := partitionColumns(db, vp)
	if err == nil {
		err = t.Hydrate()
	}
	if err != nil {
		return nil, err
	}
	out := make([]*rel.Table, len(groups))
	for gi, idxs := range groups {
		cols := make([]rel.Column, len(idxs))
		for i, ci := range idxs {
			cols[i] = t.Columns[ci]
		}
		out[gi] = rel.NewTable(vp.GroupTable(gi), cols)
		grow := make([]rel.Value, len(idxs)) // AppendRow copies, so one scratch row suffices
		for r := range t.RowCount() {
			for i, ci := range idxs {
				grow[i] = t.ValueAt(r, ci)
			}
			out[gi].AppendRow(grow)
		}
	}
	return out, nil
}

// applyPreds evaluates every not-yet-applied predicate whose referenced
// tables are in scope.
func applyPreds(b *Built, s *sqlast.Select, sc *scope, rows [][]rel.Value,
	applied map[int]bool, ex *existsCache, seekPred *sqlast.Pred) ([][]rel.Value, error) {
	for i := range s.Where {
		p := &s.Where[i]
		if applied[i] || p.Kind == sqlast.PredJoin || p == seekPred {
			continue
		}
		if !predInScope(p, sc) {
			continue
		}
		f, err := compilePred(b, p, sc, ex)
		if err != nil {
			return nil, err
		}
		var kept [][]rel.Value
		for _, r := range rows {
			ok, err := f(r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
		applied[i] = true
	}
	return rows, nil
}

// compilePred builds a tuple predicate evaluator.
func compilePred(b *Built, p *sqlast.Pred, sc *scope, ex *existsCache) (func([]rel.Value) (bool, error), error) {
	switch p.Kind {
	case sqlast.PredCompare:
		pos, err := sc.pos(p.Col)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) (bool, error) {
			return matchCompare(r[pos], p.Op, p.Value), nil
		}, nil
	case sqlast.PredExists, sqlast.PredOrExists:
		positions, err := colPositions(sc.pos, p.Cols)
		if err != nil {
			return nil, err
		}
		outerPos, err := sc.pos(p.OuterCol)
		if err != nil {
			return nil, err
		}
		matcher, err := ex.matcher(p)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) (bool, error) {
			for _, pos := range positions {
				if matchCompare(r[pos], p.Op, p.Value) {
					return true, nil
				}
			}
			return matcher(r[outerPos]), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
}

// existsCache holds the semi-join probe sets one branch execution has
// built, by predicate: the INT keys of the inner rows that pass the
// EXISTS's restriction.
type existsCache struct {
	b    *Built
	sets map[string]map[int64]bool
}

func (e *existsCache) matcher(p *sqlast.Pred) (func(rel.Value) bool, error) {
	key := p.String()
	set, ok := e.sets[key]
	if !ok {
		t, ji, vi, err := existsColumns(e.b, p)
		if err != nil {
			return nil, err
		}
		set = make(map[int64]bool)
		for r := range t.RowCount() {
			if k := t.ValueAt(r, ji); !k.Null && matchCompare(t.ValueAt(r, vi), p.Op, p.Value) {
				set[k.I] = true
			}
		}
		if e.sets == nil {
			e.sets = make(map[string]map[int64]bool)
		}
		e.sets[key] = set
	}
	return func(v rel.Value) bool { return !v.Null && set[v.I] }, nil
}

// execJoin performs one join step, producing combined tuples.
func execJoin(b *Built, s *sqlast.Select, sc *scope, outer [][]rel.Value, j optimizer.Join, st *ExecStats) ([][]rel.Value, error) {
	outerPos, err := sc.pos(j.OuterCol)
	if err != nil {
		return nil, err
	}
	if err := joinKeys(b, j.OuterCol, j.InnerCol); err != nil {
		return nil, err
	}
	switch j.Method {
	case optimizer.JoinINL:
		bi, err := inlIndex(b, j)
		if err != nil {
			return nil, err
		}
		t := bi.table
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		sc.add(j.Inner.Table, cols)
		var out [][]rel.Value
		for _, orow := range outer {
			v := orow[outerPos]
			if v.Null {
				continue
			}
			for _, rid := range bi.seekRange(sqlast.OpEq, v) {
				if st != nil {
					st.RowsSought++
				}
				row := make([]rel.Value, len(orow)+len(cols))
				copy(row, orow)
				t.ReadRowInto(row[len(orow):], int(rid))
				out = append(out, row)
			}
		}
		return out, nil
	default: // hash join
		cols, innerRows, err := fetchAccess(b, s, j.Inner, st)
		if err != nil {
			return nil, err
		}
		// Inner join column position within the inner row layout.
		ji := -1
		for i, c := range cols {
			if c == j.InnerCol.Column {
				ji = i
				break
			}
		}
		if ji < 0 {
			return nil, fmt.Errorf("engine: join column %s missing from %s", j.InnerCol, j.Inner.Table)
		}
		sc.add(j.Inner.Table, cols)
		// Chained hash table over the INT keys (see joinKeys): head map
		// plus a next-pointer array, avoiding per-key slice allocations.
		// Chaining from the last row makes every chain ascend, so a key's
		// matches come out in row id order, as from an index.
		head := make(map[int64]int32, len(innerRows))
		next := make([]int32, len(innerRows))
		for i := len(innerRows) - 1; i >= 0; i-- {
			next[i] = -1
			if k := innerRows[i][ji]; !k.Null {
				if m, ok := head[k.I]; ok {
					next[i] = m
				}
				head[k.I] = int32(i)
			}
		}
		var out [][]rel.Value
		for _, orow := range outer {
			v := orow[outerPos]
			if v.Null {
				continue
			}
			m, ok := head[v.I]
			for ok && m >= 0 {
				out = append(out, concatRows(orow, innerRows[m]))
				m = next[m]
			}
		}
		return out, nil
	}
}

func concatRows(a, b []rel.Value) []rel.Value {
	out := make([]rel.Value, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}
