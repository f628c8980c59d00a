package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// ExecStats counts the work an execution performed; tests use it to
// assert that physical designs actually reduce data access (e.g.
// partition pruning reads fewer rows).
type ExecStats struct {
	// RowsScanned counts rows produced by heap/partition scans.
	RowsScanned int64
	// RowsSought counts rows fetched through index seeks and probes.
	RowsSought int64
	// Branches counts executed union branches.
	Branches int64
}

// add accumulates another branch's counters.
func (s *ExecStats) add(o ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.RowsSought += o.RowsSought
	s.Branches += o.Branches
}

// Result is the output of executing a sorted outer-union query.
type Result struct {
	// Cols are the output column names.
	Cols []string
	// Rows are the output tuples, ordered by the ORDER BY column.
	Rows [][]rel.Value
	// Stats counts the work performed.
	Stats ExecStats
}

// Execute runs an optimizer plan over the built database through the
// pipelined batch executor. The compiled form of the plan and its
// probe structures (join hash tables, EXISTS sets) are
// cached on the Built, so repeated executions of the same plan — and
// other plans touching the same tables — reuse them.
func Execute(b *Built, plan *optimizer.Plan) (*Result, error) {
	return ExecuteContext(context.Background(), b, plan)
}

// ExecuteContext is Execute with cancellation: ctx aborts both the
// wait for plan compilation and the execution itself (see
// PreparedPlan.ExecuteContextWorkers; this helper runs it on the caller's
// goroutine alone). A
// cancelled call never poisons the Built's structure caches — in-flight
// builds always complete for the next caller.
func ExecuteContext(ctx context.Context, b *Built, plan *optimizer.Plan) (*Result, error) {
	pp, err := b.PreparedContext(ctx, plan)
	if err != nil {
		return nil, err
	}
	return pp.ExecuteContextWorkers(ctx, 1)
}

// scope tracks the tables a branch has in scope and resolves column
// references against them, one way per executor. The reference executor
// builds combined tuples — every column of every table, concatenated in
// join order — and reads them at pos. The batch executor builds narrow
// tuples: slot hands out one tuple slot per distinct column, at its
// first reference, so a branch's tuples are as wide as the set of
// columns something after the scan reads (join keys, post-driver
// predicates, the projection) and every table's refs list says which of
// its columns to fill and where. Driver-stage kernels read column
// vectors at col and take no slot. slot is the only method that writes:
// it runs during Prepare, on one goroutine; executions only call col.
type scope struct {
	tables map[string]*scopeTable
	width  int // combined tuple width (reference executor)
	slots  int // narrow tuple slots handed out (batch executor)
}

// scopeTable is one table in scope.
type scopeTable struct {
	base int            // combined-tuple offset of the table's first column
	cols map[string]int // column name -> column index
	refs []colRef       // the columns a narrow tuple carries, in slot order
}

// colRef places one referenced column in the narrow tuple.
type colRef struct{ col, slot int }

func newScope() *scope { return &scope{tables: make(map[string]*scopeTable)} }

func (sc *scope) add(table string, cols []string) *scopeTable {
	st := &scopeTable{base: sc.width, cols: make(map[string]int, len(cols))}
	for i, c := range cols {
		st.cols[c] = i
	}
	sc.tables[table] = st
	sc.width += len(cols)
	return st
}

// resolve finds a column's table and its index there.
func (sc *scope) resolve(c sqlast.ColRef) (*scopeTable, int, error) {
	st, ok := sc.tables[c.Table]
	if !ok {
		return nil, 0, fmt.Errorf("engine: table %s not in scope", c.Table)
	}
	i, ok := st.cols[c.Column]
	if !ok {
		return nil, 0, fmt.Errorf("engine: column %s not in scope", c)
	}
	return st, i, nil
}

// col returns the column's index within its table.
func (sc *scope) col(c sqlast.ColRef) (int, error) {
	_, i, err := sc.resolve(c)
	return i, err
}

// pos returns the column's position in the combined tuple.
func (sc *scope) pos(c sqlast.ColRef) (int, error) {
	st, i, err := sc.resolve(c)
	if err != nil {
		return 0, err
	}
	return st.base + i, nil
}

// slot returns the column's slot in the narrow tuple, handing out the
// next free one at the column's first reference.
func (sc *scope) slot(c sqlast.ColRef) (int, error) {
	st, i, err := sc.resolve(c)
	if err != nil {
		return 0, err
	}
	for _, r := range st.refs {
		if r.col == i {
			return r.slot, nil
		}
	}
	st.refs = append(st.refs, colRef{col: i, slot: sc.slots})
	sc.slots++
	return sc.slots - 1, nil
}

func (sc *scope) has(table string) bool { _, ok := sc.tables[table]; return ok }

func predInScope(p *sqlast.Pred, sc *scope) bool {
	switch p.Kind {
	case sqlast.PredCompare:
		return sc.has(p.Col.Table)
	case sqlast.PredOr:
		return len(p.Cols) > 0 && sc.has(p.Cols[0].Table)
	case sqlast.PredExists, sqlast.PredOrExists:
		if !sc.has(p.OuterCol.Table) {
			return false
		}
		for _, c := range p.Cols {
			if !sc.has(c.Table) {
				return false
			}
		}
		return true
	}
	return false
}

// colPositions resolves every column through one of the scope's
// resolvers (col, pos or slot).
func colPositions(resolve func(sqlast.ColRef) (int, error), cols []sqlast.ColRef) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		pos, err := resolve(c)
		if err != nil {
			return nil, err
		}
		out[i] = pos
	}
	return out, nil
}

func matchCompare(v rel.Value, op sqlast.CmpOp, lit rel.Value) bool {
	if v.Null || lit.Null {
		return false
	}
	return op.Matches(v.Compare(lit))
}

// sortResult applies the final ORDER BY of the sorted outer union.
func sortResult(res *Result, orderBy string) error {
	if orderBy == "" {
		return nil
	}
	oi := -1
	for i, c := range res.Cols {
		if c == orderBy {
			oi = i
			break
		}
	}
	if oi < 0 {
		return fmt.Errorf("engine: ORDER BY column %s missing from output", orderBy)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return res.Rows[i][oi].Compare(res.Rows[j][oi]) < 0
	})
	return nil
}

func opFromCmp(op sqlast.CmpOp) opKind {
	switch op {
	case sqlast.OpEq:
		return opEq
	case sqlast.OpLt:
		return opLt
	case sqlast.OpLe:
		return opLe
	case sqlast.OpGt:
		return opGt
	}
	return opGe
}
