package engine

import (
	"context"
	"fmt"
	"slices"
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
// probe structures (the key indexes its joins and EXISTS probes search)
// are cached on the Built, so repeated executions of the same plan — and
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
// join order — and reads them at pos. The batch executor builds no
// tuples: it carries one row-id vector per table, numbered by the
// table's idx, and ref resolves a column to (table idx, column index),
// recording it in the table's refs — the columns an execution reads, so
// a scan fetches exactly those. ref is the only method that writes: it
// runs during Prepare, on one goroutine; executions only call col.
type scope struct {
	tables map[string]*scopeTable
	width  int // combined tuple width (reference executor)
	n      int // tables added
}

// scopeTable is one table in scope.
type scopeTable struct {
	idx  int            // the table's number: the driver 0, join j's inner j+1
	base int            // combined-tuple offset of the table's first column
	cols map[string]int // column name -> column index
	refs []int          // the columns something reads, first reference first
}

// tabCol is a column reference of the batch executor: the table's idx
// and the column's index in the table.
type tabCol struct{ tab, col int }

func newScope() *scope { return &scope{tables: make(map[string]*scopeTable)} }

func (sc *scope) add(table string, cols []string) *scopeTable {
	st := &scopeTable{idx: sc.n, base: sc.width, cols: make(map[string]int, len(cols))}
	for i, c := range cols {
		st.cols[c] = i
	}
	sc.tables[table] = st
	sc.width += len(cols)
	sc.n++
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

// ref resolves the column for the batch executor and records that an
// execution reads it.
func (sc *scope) ref(c sqlast.ColRef) (tabCol, error) {
	st, i, err := sc.resolve(c)
	if err != nil {
		return tabCol{}, err
	}
	if !slices.Contains(st.refs, i) {
		st.refs = append(st.refs, i)
	}
	return tabCol{tab: st.idx, col: i}, nil
}

func (sc *scope) has(table string) bool { _, ok := sc.tables[table]; return ok }

// predInScope reports whether the one table a filter predicate reads
// (see planShape) is in scope.
func predInScope(p *sqlast.Pred, sc *scope) bool {
	if p.Kind == sqlast.PredCompare {
		return sc.has(p.Col.Table)
	}
	return sc.has(p.OuterCol.Table)
}

// colPositions resolves every column through one of the scope's
// resolvers (col or pos).
func colPositions[P any](resolve func(sqlast.ColRef) (P, error), cols []sqlast.ColRef) ([]P, error) {
	out := make([]P, len(cols))
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

// planShape refuses, with one error per shape, every plan shape that
// translate, the optimizer and physdesign never emit, so both executors
// compile only the shapes they do: a branch sqlast.CheckShape refuses,
// or one whose plan joins other than once per table past the driver
// (both wrap sqlast.ErrBranchShape); a seek that names partition groups,
// has no predicate, seeks by <> or by anything but a compare on the
// leading column of an index of its own table; a predicate of a kind
// sqlast does not define; an EXISTS without a value column; an
// OR-or-EXISTS reading a column off its outer column's table; and a
// non-NULL literal typed unlike the column it is compared with
// (translate coerces every literal to its column's type). A table or
// column that does not resolve is left to the branch's own checks.
func planShape(b *Built, plan *optimizer.Plan) error {
	for bi, br := range plan.Branches {
		if err := br.Sel.CheckShape(); err != nil {
			return fmt.Errorf("engine: branch %d: %w", bi, err)
		}
		if len(br.Joins) != len(br.Sel.From)-1 {
			return fmt.Errorf("engine: branch %d joins %d times over %d tables: %w", bi, len(br.Joins), len(br.Sel.From), sqlast.ErrBranchShape)
		}
		if a := br.Driver; a.Kind == optimizer.AccessSeek {
			sp := a.SeekPred
			switch {
			case len(a.Groups) > 0:
				return fmt.Errorf("engine: seek on %s names partition groups %v in branch %d; a partition is scanned", a.Table, a.Groups, bi)
			case sp == nil:
				return fmt.Errorf("engine: seek access without predicate on %s in branch %d", a.Table, bi)
			case sp.Kind != sqlast.PredCompare || sp.Op == sqlast.OpNe:
				return fmt.Errorf("engine: seek on %s by %s in branch %d; a seek applies =, <, <=, > or >= to one column", a.Table, sp, bi)
			case a.Index == nil || a.Index.Table != a.Table || len(a.Index.Key) == 0 ||
				sp.Col != (sqlast.ColRef{Table: a.Table, Column: a.Index.Key[0]}):
				return fmt.Errorf("engine: seek on %s by %s in branch %d is not on the leading column of an index of %s", a.Table, sp, bi, a.Table)
			}
			if err := literalFits(b, sp, sp.Col); err != nil {
				return err
			}
		}
		for i := range br.Sel.Where {
			if err := predShape(b, &br.Sel.Where[i]); err != nil {
				return fmt.Errorf("%w in branch %d", err, bi)
			}
		}
	}
	return nil
}

// predShape is planShape for one WHERE conjunct.
func predShape(b *Built, p *sqlast.Pred) error {
	switch p.Kind {
	case sqlast.PredJoin:
		return nil
	case sqlast.PredCompare:
		return literalFits(b, p, p.Col)
	case sqlast.PredExists, sqlast.PredOrExists:
		if p.InnerCol == "" {
			return fmt.Errorf("engine: %s has no value column; an EXISTS compares one", p)
		}
		for _, c := range p.Cols {
			if c.Table != p.OuterCol.Table {
				return fmt.Errorf("engine: %s reads %s beside %s; an OR-or-EXISTS reads its outer column's table alone", p, c.Table, p.OuterCol.Table)
			}
			if err := literalFits(b, p, c); err != nil {
				return err
			}
		}
		return literalFits(b, p, sqlast.ColRef{Table: p.Table, Column: p.InnerCol})
	}
	return fmt.Errorf("engine: predicate %s is of kind %d, which sqlast does not define", p, p.Kind)
}

// literalFits refuses a non-NULL literal of p typed unlike column c,
// which p compares it with.
func literalFits(b *Built, p *sqlast.Pred, c sqlast.ColRef) error {
	if p.Value.Null {
		return nil
	}
	if t := resolveTable(b, c.Table); t != nil {
		if col := t.Column(c.Column); col != nil && col.Typ != p.Value.Typ {
			return fmt.Errorf("engine: %s compares %s (%s) with a literal of type %s; a literal has its column's type", p, c, col.Typ, p.Value.Typ)
		}
	}
	return nil
}

// orderKey resolves the ORDER BY of a plan to its output position, -1
// when the query has none or the plan no branch. The sorted outer union
// is ordered by document order, the context element's ID, so both
// executors refuse, with one error, an ORDER BY whose position in any
// branch the plan runs is not a non-Nullable INT column: a NULL item, a
// nullable column or a column of another type. A column that does not
// resolve is left to the branch's own checks.
func orderKey(b *Built, plan *optimizer.Plan) (int, error) {
	ob := plan.Query.OrderBy
	if ob == "" || len(plan.Branches) == 0 {
		return -1, nil
	}
	pos := slices.Index(plan.Query.OutputColumns(), ob)
	if pos < 0 {
		return -1, fmt.Errorf("engine: ORDER BY column %s missing from output", ob)
	}
	for bi, br := range plan.Branches {
		if pos >= len(br.Sel.Items) {
			return -1, fmt.Errorf("engine: ORDER BY column %s missing from branch %d", ob, bi)
		}
		it := br.Sel.Items[pos]
		if it.Col == nil {
			return -1, fmt.Errorf("engine: ORDER BY %s is a NULL item in branch %d; it must be an INT NOT NULL column in every branch", ob, bi)
		}
		t := resolveTable(b, it.Col.Table)
		if t == nil {
			continue
		}
		if c := t.Column(it.Col.Column); c != nil && (c.Typ != rel.TInt || c.Nullable) {
			return -1, fmt.Errorf("engine: ORDER BY %s is %s, a %s column, in branch %d; it must be an INT NOT NULL column in every branch",
				ob, it.Col, c.TypeDecl(), bi)
		}
	}
	return pos, nil
}

// sortResult applies the final ORDER BY of the sorted outer union, on
// output position pos (see orderKey).
func sortResult(res *Result, pos int) {
	if pos < 0 {
		return
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return res.Rows[i][pos].Compare(res.Rows[j][pos]) < 0
	})
}
