package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

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
// probe structures (join hash tables, EXISTS sets, partition zips) are
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

// scope tracks the combined tuple layout during branch execution:
// table name -> column name -> offset in the combined tuple.
type scope struct {
	offsets map[string]map[string]int
	width   int
}

func newScope() *scope { return &scope{offsets: make(map[string]map[string]int)} }

func (sc *scope) add(table string, cols []string) {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		m[c] = sc.width + i
	}
	sc.offsets[table] = m
	sc.width += len(cols)
}

func (sc *scope) pos(c sqlast.ColRef) (int, error) {
	m, ok := sc.offsets[c.Table]
	if !ok {
		return 0, fmt.Errorf("engine: table %s not in scope", c.Table)
	}
	i, ok := m[c.Column]
	if !ok {
		return 0, fmt.Errorf("engine: column %s not in scope", c)
	}
	return i, nil
}

func (sc *scope) has(table string) bool { _, ok := sc.offsets[table]; return ok }

// scanSink absorbs the byte-touching work of heap scans so the
// compiler cannot elide it. It is updated atomically: union branches
// may scan in parallel.
var scanSink atomic.Int64

// scanTouchPasses calibrates the simulated sequential-read bandwidth
// of heap scans. The paper's substrate is a disk-resident system where
// scanning a page costs far more than a hash-table operation; an
// in-memory row store inverts that balance, so heap scans here touch
// every byte several times to restore the ratio (roughly emulating a
// few hundred MB/s of effective scan bandwidth against in-memory joins).
const scanTouchPasses = 8

// touchRows makes heap scans cost work proportional to the scanned
// byte volume, like the page reads of a disk-resident system: a wider
// table is slower to scan even when the query projects few columns.
// Without this, in-memory scans are width-oblivious and the paper's
// untuned-mapping comparisons (Section 1.1) lose their crossover. The
// batch executor calls it once per batch of scanned rows, so the
// simulated read cost stays attached to the scan that incurs it even
// when downstream operators reuse cached structures.
func touchRows(rows [][]rel.Value) {
	var sink int64
	for pass := 0; pass < scanTouchPasses; pass++ {
		for _, row := range rows {
			for i := range row {
				v := &row[i]
				if v.Typ == rel.TString && !v.Null {
					for j := 0; j < len(v.S); j++ {
						sink += int64(v.S[j])
					}
				} else {
					sink += 8
				}
			}
		}
	}
	scanSink.Add(sink)
}

// touchTable is touchRows over columnar storage: the same simulated
// per-byte scan cost for rows [lo, hi), read straight from the column
// vectors — numeric cells cost one unit of work per cell per pass,
// string cells one per byte — without materializing a row. Columns
// holding exception values (appends that don't round-trip through the
// typed vectors) fall back to per-cell materialization so the charged
// work matches the row store exactly.
func touchTable(t *rel.Table, lo, hi int) {
	if lo >= hi {
		return
	}
	var sink int64
	for pass := 0; pass < scanTouchPasses; pass++ {
		for ci := range t.Columns {
			if codes, dict, nulls, ok := t.StrCol(ci); ok {
				strs := dict.Strs()
				for r := lo; r < hi; r++ {
					if nulls.Get(r) {
						sink += 8
						continue
					}
					s := strs[codes[r]]
					for j := 0; j < len(s); j++ {
						sink += int64(s[j])
					}
				}
				continue
			}
			if t.Columns[ci].Typ != rel.TString {
				if _, _, ok := t.IntCol(ci); ok {
					for r := lo; r < hi; r++ {
						sink += 8
					}
					continue
				}
				if _, _, ok := t.FloatCol(ci); ok {
					for r := lo; r < hi; r++ {
						sink += 8
					}
					continue
				}
			}
			// Exception fallback: charge each cell like touchRows would.
			for r := lo; r < hi; r++ {
				v := t.ValueAt(r, ci)
				if v.Typ == rel.TString && !v.Null {
					for j := 0; j < len(v.S); j++ {
						sink += int64(v.S[j])
					}
				} else {
					sink += 8
				}
			}
		}
	}
	scanSink.Add(sink)
}

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

func colPositions(sc *scope, cols []sqlast.ColRef) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		pos, err := sc.pos(c)
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
