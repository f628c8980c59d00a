// Package optimizer is the cost-based query optimizer the whole stack
// leans on: it picks access paths (heap scan, index seek, covering
// index, materialized view, vertical partition groups) and join methods
// (hash join, index nested loops) for every branch of a sorted
// outer-union query, under a physical configuration, using per-table
// statistics. The same planner serves three callers exactly as in the
// paper's architecture (Fig. 2): the physical design tool's what-if
// costing, the search algorithms' mapping costing, and real execution.
package optimizer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// Cost model constants (unit: one sequential page read = 1.0).
const (
	// CostTuple is the CPU cost of producing/inspecting one tuple.
	CostTuple = 0.002
	// CostSeek is the cost of one index traversal to a leaf.
	CostSeek = 0.02
	// CostRandIO is the cost of one random row lookup from an index.
	CostRandIO = 0.5
	// CostHashTuple is the per-tuple cost of hash build/probe.
	CostHashTuple = 0.004
	// CostSortTuple is the per-tuple-comparison cost of sorting.
	CostSortTuple = 0.004
	// CostBranch is the fixed startup cost of one union branch
	// (operator initialization, per-branch hash/probe structures).
	// Without it, near-tie fragmentations of a relation look free to
	// the model while paying real per-branch overhead at execution.
	CostBranch = 0.25
)

// AccessKind discriminates access paths.
type AccessKind int

const (
	// AccessScan reads the full heap table (or partition groups).
	AccessScan AccessKind = iota
	// AccessSeek traverses an index for a sargable predicate.
	AccessSeek
)

// Access describes how one table (or view) is read.
type Access struct {
	// Table is the base table or view being accessed.
	Table string
	// Kind is the access path.
	Kind AccessKind
	// Index is the index used by AccessSeek.
	Index *physical.Index
	// Covering reports whether the index covers all referenced columns
	// (no row lookups needed).
	Covering bool
	// SeekPred is the sargable predicate the seek applies.
	SeekPred *sqlast.Pred
	// Groups lists vertical partition groups read (nil when the
	// table is unpartitioned).
	Groups []int
	// Rows estimates the output cardinality after local predicates.
	Rows float64
	// Cost is the estimated access cost.
	Cost float64
}

// JoinMethod discriminates join algorithms.
type JoinMethod int

const (
	// JoinHash builds a hash table on the inner input.
	JoinHash JoinMethod = iota
	// JoinINL probes an inner index per outer row.
	JoinINL
)

func (m JoinMethod) String() string {
	if m == JoinINL {
		return "INL"
	}
	return "HASH"
}

// Join describes the join of a two-table branch's plan.
type Join struct {
	Method JoinMethod
	// Inner describes the inner input (for hash: a scan; for INL the
	// Index field names the probed index).
	Inner Access
	// OuterCol/InnerCol are the equi-join columns.
	OuterCol, InnerCol sqlast.ColRef
	// Rows estimates the join output; Cost the incremental cost.
	Rows, Cost float64
}

// Branch is the physical plan of one union branch.
type Branch struct {
	// Sel is the branch being planned.
	Sel *sqlast.Select
	// View is non-nil when the branch is answered from a materialized
	// view; Driver then accesses the view.
	View *physical.View
	// Driver is the first (driving) access.
	Driver Access
	// Joins holds the join to the other table of a two-table branch, and
	// is empty for a one-table branch or a view plan.
	Joins []Join
	// Rows and Cost are branch-level estimates.
	Rows, Cost float64

	// an is the analysis of the query branch this plan answers (for a
	// view plan that is the branch before the rewrite, not Sel); Costs
	// carries it to ReplanCosts and PlanFrom.
	an *analysis
}

// Plan is the physical plan of a sorted outer-union query.
type Plan struct {
	Query    *sqlast.Query
	Branches []*Branch
	// Rows and Cost are totals (Cost includes the final sort).
	Rows, Cost float64

	fpOnce sync.Once
	fp     string
}

// Costs is a plan's estimates without its operators: per branch the
// analysis and the rows and cost of the branch's plan, and the query's
// totals. It is the what-if state of a caller that reads only costs:
// ReplanCosts derives one from another and PlanFrom builds the plan it
// stands for. It keeps no configuration.
type Costs struct {
	Query *sqlast.Query
	// Rows and Cost are the totals of the plan these estimates are of.
	Rows, Cost float64

	branches []branchCost
}

// branchCost is one branch's analysis and estimates.
type branchCost struct {
	an         *analysis
	rows, cost float64
}

// Costs returns the plan's estimates, for ReplanCosts and PlanFrom to
// start from.
func (p *Plan) Costs() *Costs {
	c := &Costs{Query: p.Query, Rows: p.Rows, Cost: p.Cost, branches: make([]branchCost, len(p.Branches))}
	for i, b := range p.Branches {
		c.branches[i] = branchCost{an: b.an, rows: b.Rows, cost: b.Cost}
	}
	return c
}

// Fingerprint returns a canonical identity for the physical plan: the
// rendered operator tree plus each branch's SQL text. Two plans with
// equal fingerprints describe the same execution, so engines key
// compiled per-plan state (prepared executors, cached probe
// structures) on it. Computed once and memoized.
func (p *Plan) Fingerprint() string {
	p.fpOnce.Do(func() {
		var b strings.Builder
		b.WriteString(p.Explain())
		for _, br := range p.Branches {
			b.WriteString(br.Sel.SQL())
			b.WriteByte('\n')
		}
		p.fp = b.String()
	})
	return p.fp
}

// Objects returns the identities of every relational object the plan
// reads: base tables, partition group tables, indexes, and views. This
// is the I(Q,M) set of Section 4.8's cost derivation.
func (p *Plan) Objects() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	addAccess := func(a Access) {
		if len(a.Groups) > 0 {
			for _, g := range a.Groups {
				add(a.Table + "#g" + strconv.Itoa(g))
			}
		} else {
			add(a.Table)
		}
		if a.Index != nil {
			add(a.Index.ID())
		}
	}
	for _, b := range p.Branches {
		if b.View != nil {
			add("view:" + b.View.Name)
		}
		addAccess(b.Driver)
		for _, j := range b.Joins {
			addAccess(j.Inner)
		}
		for _, pr := range b.Sel.Where {
			if pr.Kind == sqlast.PredExists || pr.Kind == sqlast.PredOrExists {
				add(pr.Table)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Explain renders the plan as an indented operator tree, one branch of
// the sorted outer union per block.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PLAN cost=%.2f rows=%.0f\n", p.Cost, p.Rows)
	for i, br := range p.Branches {
		fmt.Fprintf(&b, " BRANCH %d cost=%.2f rows=%.0f\n", i, br.Cost, br.Rows)
		if br.View != nil {
			fmt.Fprintf(&b, "  VIEW %s (%s JOIN %s)\n", br.View.Name, br.View.Outer, br.View.Inner)
		}
		b.WriteString("  " + explainAccess(br.Driver) + "\n")
		for _, j := range br.Joins {
			fmt.Fprintf(&b, "  %s JOIN (%s = %s) rows=%.0f\n   %s\n",
				j.Method, j.OuterCol, j.InnerCol, j.Rows, explainAccess(j.Inner))
		}
		for _, pr := range br.Sel.Where {
			if pr.Kind == sqlast.PredExists || pr.Kind == sqlast.PredOrExists {
				fmt.Fprintf(&b, "  SEMIJOIN %s\n", pr.Table)
			}
		}
	}
	if p.Query != nil && p.Query.OrderBy != "" {
		fmt.Fprintf(&b, " SORT BY %s\n", p.Query.OrderBy)
	}
	return b.String()
}

func explainAccess(a Access) string {
	switch {
	case a.Kind == AccessSeek && a.Index != nil:
		cover := ""
		if a.Covering {
			cover = " COVERING"
		}
		pred := ""
		if a.SeekPred != nil {
			pred = " [" + a.SeekPred.String() + "]"
		}
		if len(a.Groups) > 0 {
			// No search emits one, but a plan naming groups must not share a
			// fingerprint with the seek it is not.
			pred += fmt.Sprintf(" groups=%v", a.Groups)
		}
		return fmt.Sprintf("INDEX SEEK %s ON %s%s%s", a.Index.Name, a.Table, cover, pred)
	case len(a.Groups) > 0:
		return fmt.Sprintf("PARTITION SCAN %s groups=%v", a.Table, a.Groups)
	default:
		return fmt.Sprintf("SCAN %s", a.Table)
	}
}

// Optimizer plans queries against a statistics provider.
type Optimizer struct {
	// Provider supplies table statistics (derived during search, exact
	// when planning execution).
	Provider stats.Provider
	// calls counts PlanQuery, PlanFrom and ReplanCosts invocations. Atomic:
	// a service corpus plans concurrent plan-cache misses on one
	// Optimizer.
	calls atomic.Int64
}

// New creates an optimizer over the given statistics.
func New(p stats.Provider) *Optimizer { return &Optimizer{Provider: p} }

// Calls returns the number of PlanQuery, PlanFrom and ReplanCosts
// invocations so far — the experiments report optimizer-call counts like
// the paper reports tool running time.
func (o *Optimizer) Calls() int64 { return o.calls.Load() }

// PlanQuery builds the minimum-estimated-cost physical plan for the
// query under the configuration. A branch of a shape sqlast.CheckShape
// refuses is an error wrapping sqlast.ErrBranchShape.
func (o *Optimizer) PlanQuery(q *sqlast.Query, cfg *physical.Config) (*Plan, error) {
	return o.plan(q, cfg, func(i int) (*analysis, error) { return o.analyse(q.Branches[i]) })
}

// PlanFrom plans c.Query under cfg from the branch analyses c carries,
// reusing the view rewrites memoized in them: the plan PlanQuery(c.Query,
// cfg) returns, bit for bit, without analysing a branch again. It counts
// as one call. c must come from Plan.Costs of a plan of this optimizer or
// from ReplanCosts, and ReplanCosts' rule on concurrent calls holds for
// it too.
func (o *Optimizer) PlanFrom(c *Costs, cfg *physical.Config) (*Plan, error) {
	return o.plan(c.Query, cfg, func(i int) (*analysis, error) { return c.branches[i].an, nil })
}

// ReplanCosts returns prev's estimates under cfg, where cfg is the
// configuration prev was costed under plus the structures of added: the
// estimates of PlanQuery(prev.Query, cfg), to the bit, and one counted
// call. A branch is priced again from the analysis prev carries only
// when a structure of added can serve it (see serves), by the join-order
// enumeration and view comparison PlanQuery runs, and no plan is built.
// When no branch's estimates change it returns prev itself and allocates
// nothing. Otherwise it writes the estimates into dst, reusing dst's
// branch slice, and returns dst; a nil dst, or dst == prev, gets a fresh
// Costs instead, so prev is never written. A caller that passes dst owns
// it: no estimate it still reads may be dst, since dst's old contents are
// overwritten, and on an error dst holds a partial state. prev must come
// from Plan.Costs of a plan of this optimizer or from ReplanCosts. Calls
// may record view rewrites in the analyses prev shares with every cost
// state descending from the same PlanQuery, so calls on such states, and
// PlanFrom on them, must not run concurrently.
func (o *Optimizer) ReplanCosts(dst, prev *Costs, cfg, added *physical.Config) (*Costs, error) {
	o.calls.Add(1)
	if cfg == nil {
		cfg = &physical.Config{}
	}
	next := prev
	for i, b := range prev.branches {
		if !o.serves(b.an, added) {
			continue
		}
		e := orderEnum{o: o, an: b.an, cfg: cfg}
		_, rows, cost, err := e.choose()
		if err != nil {
			return nil, err
		}
		if sameFloat(rows, b.rows) && sameFloat(cost, b.cost) {
			continue
		}
		if next == prev {
			if next = dst; next == nil || next == prev {
				next = &Costs{}
			}
			next.Query, next.branches = prev.Query, append(next.branches[:0], prev.branches...)
		}
		next.branches[i].rows, next.branches[i].cost = rows, cost
	}
	if next != prev {
		next.Rows, next.Cost = totals(next.Query, len(next.branches), func(i int) (float64, float64) {
			return next.branches[i].rows, next.branches[i].cost
		})
	}
	return next, nil
}

// plan is the one planning loop: every branch of q under cfg, from the
// analysis an gives for its index.
func (o *Optimizer) plan(q *sqlast.Query, cfg *physical.Config, an func(i int) (*analysis, error)) (*Plan, error) {
	o.calls.Add(1)
	if cfg == nil {
		cfg = &physical.Config{}
	}
	plan := &Plan{Query: q, Branches: make([]*Branch, len(q.Branches))}
	for i := range q.Branches {
		a, err := an(i)
		if err != nil {
			return nil, err
		}
		b, err := o.planBranch(a, cfg)
		if err != nil {
			return nil, err
		}
		plan.Branches[i] = b
	}
	plan.Rows, plan.Cost = totals(q, len(plan.Branches), func(i int) (float64, float64) {
		return plan.Branches[i].Rows, plan.Branches[i].Cost
	})
	return plan, nil
}

// totals sums a query's branch estimates in branch order, each branch's
// startup cost and the final sort included. plan and ReplanCosts both
// sum through it, so their costs agree to the bit.
func totals(q *sqlast.Query, n int, branch func(i int) (rows, cost float64)) (rows, cost float64) {
	for i := 0; i < n; i++ {
		r, c := branch(i)
		rows += r
		cost += c + CostBranch
	}
	if q.OrderBy != "" && rows > 1 {
		cost += rows * math.Log2(rows+2) * CostSortTuple
	}
	return rows, cost
}

// Cost returns only the estimated cost.
func (o *Optimizer) Cost(q *sqlast.Query, cfg *physical.Config) (float64, error) {
	p, err := o.PlanQuery(q, cfg)
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// analysis is everything planning a branch reads that no physical
// configuration changes. PlanQuery makes one per branch and Plan.Costs
// carries it forward, so ReplanCosts and PlanFrom start from the join,
// not from the SQL.
type analysis struct {
	sel *sqlast.Select
	// from is aligned with sel.From: one table, or two (sqlast.CheckShape).
	from []fromTable
	// join holds the two columns of a two-table branch's join predicate,
	// aligned with from: join[k] is the column of from[k].
	join [2]sqlast.ColRef
	// probes are the columns an index must lead with to be used by the
	// branch: every non-<> compare column (a seek), both columns of the
	// join predicate (the inner column of an index nested-loop join), and
	// the Table and JoinCol of every EXISTS and OR-EXISTS predicate (the
	// semi-join probe).
	probes []sqlast.ColRef
	// rewrites memoizes the rewrite of a two-table sel over each view of
	// those two tables planned against so far.
	rewrites []*viewRewrite
}

// fromTable is one FROM table of an analysed branch.
type fromTable struct {
	name string
	ts   *stats.TableStats
	// needed is sel.ColumnsOf(name); rows the cardinality after the
	// table's local predicates.
	needed []string
	rows   float64
}

// viewRewrite is a branch rewritten over a view.
type viewRewrite struct {
	view *physical.View
	// sel is nil when the view does not apply to the branch.
	sel *sqlast.Select
	// scan reads the whole view; scan.Rows is the cardinality after the
	// rewritten local predicates.
	scan Access
}

// analyse derives a branch's analysis from its SQL and the provider's
// statistics. It is the optimizer's one check of the branch's shape and
// of its tables' statistics: a branch whose analysis exists plans.
func (o *Optimizer) analyse(s *sqlast.Select) (*analysis, error) {
	if err := s.CheckShape(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	an := &analysis{sel: s}
	if len(s.Where) > 0 {
		an.probes = make([]sqlast.ColRef, 0, 2*len(s.Where))
	}
	for i := range s.Where {
		switch p := &s.Where[i]; p.Kind {
		case sqlast.PredCompare:
			if p.Op != sqlast.OpNe {
				an.probes = append(an.probes, p.Col)
			}
		case sqlast.PredJoin:
			an.probes = append(an.probes, p.Left, p.Right)
			an.join = [2]sqlast.ColRef{p.Left, p.Right}
			if p.Left.Table != s.From[0] {
				an.join = [2]sqlast.ColRef{p.Right, p.Left}
			}
		case sqlast.PredExists, sqlast.PredOrExists:
			an.probes = append(an.probes, sqlast.ColRef{Table: p.Table, Column: p.JoinCol})
		}
	}
	an.from = make([]fromTable, len(s.From))
	for i, t := range s.From {
		ft := &an.from[i]
		ft.name, ft.needed = t, s.ColumnsOf(t)
		if ft.ts = o.Provider.TableStats(t); ft.ts == nil {
			return nil, fmt.Errorf("optimizer: no statistics for table %s of branch %s", t, s.SQL())
		}
		ft.rows, _ = o.localRows(s, t, ft.ts, nil)
	}
	return an, nil
}

// serves reports whether a structure of added can change the branch's
// plan: an index leading with one of the branch's probe columns, a
// partition of a FROM table, or a view of the branch's two FROM tables
// the branch rewrites over. These are the only reads of a configuration
// in bestTableAccess, bestJoin, applyExists and orderEnum.choose, so a
// branch no structure of added serves plans under a configuration plus
// added as it did without them. It may memoize view rewrites in an.
func (o *Optimizer) serves(an *analysis, added *physical.Config) bool {
	for _, idx := range added.Indexes {
		if slices.Contains(an.probes, sqlast.ColRef{Table: idx.Table, Column: idx.Key[0]}) {
			return true
		}
	}
	for _, vp := range added.Partitions {
		for i := range an.from {
			if an.from[i].name == vp.Table {
				return true
			}
		}
	}
	for _, v := range added.Views {
		if viewOf(an.sel.From, v) && o.rewriteOver(an, v).sel != nil {
			return true
		}
	}
	return false
}

// viewOf reports whether v is a view of the two tables of a two-table
// FROM list.
func viewOf(from []string, v *physical.View) bool {
	return len(from) == 2 && (from[0] == v.Outer || from[1] == v.Outer) && (from[0] == v.Inner || from[1] == v.Inner)
}

// rewriteOver returns the branch rewritten over a view of its two
// tables (sel nil when the view does not apply); RewriteOverView runs
// once per such view.
func (o *Optimizer) rewriteOver(an *analysis, v *physical.View) *viewRewrite {
	for _, r := range an.rewrites {
		if r.view == v {
			return r
		}
	}
	r := &viewRewrite{view: v}
	if rs, ok := RewriteOverView(an.sel, v); ok {
		ts := v.Stats(o.Provider)
		r.sel, r.scan = rs, o.scanAccess(v.Name, ts, nil)
		r.scan.Rows, _ = o.localRows(rs, v.Name, ts, nil)
	}
	an.rewrites = append(an.rewrites, r)
	return r
}

// planBranch plans a branch in two halves: choose, then build the
// winner.
func (o *Optimizer) planBranch(an *analysis, cfg *physical.Config) (*Branch, error) {
	e := orderEnum{o: o, an: an, cfg: cfg}
	view, rows, cost, err := e.choose()
	if err != nil {
		return nil, err
	}
	return e.build(view, rows, cost), nil
}

// orderEnum plans a branch's join orders: FROM[0] driving and, for a
// two-table branch, FROM[1] driving, joined to the other table by the
// branch's one join predicate. The second order replaces the first only
// when it is strictly cheaper, so of equal costs FROM[0] drives.
type orderEnum struct {
	o   *Optimizer
	an  *analysis
	cfg *physical.Config

	driver     Access
	join       Join // zero for a one-table branch
	rows, cost float64
}

// run leaves the cheaper order in e.
func (e *orderEnum) run() (err error) {
	if e.driver, e.join, e.rows, e.cost, err = e.order(0); err != nil || len(e.an.from) == 1 {
		return err
	}
	driver, join, rows, cost, err := e.order(1)
	if err == nil && cost < e.cost {
		e.driver, e.join, e.rows, e.cost = driver, join, rows, cost
	}
	return err
}

// order plans the order FROM[first] drives, with its EXISTS semi-joins
// folded in.
func (e *orderEnum) order(first int) (driver Access, join Join, rows, cost float64, err error) {
	from := e.an.from
	driver = e.o.bestTableAccess(e.an.sel, &from[first], e.cfg)
	rows, cost = driver.Rows, driver.Cost
	if len(from) == 2 {
		join = e.o.bestJoin(&from[1-first], e.cfg, rows, e.an.join[first], e.an.join[1-first])
		rows, cost = join.Rows, cost+join.Cost
	}
	rows, ecost, err := e.o.applyExists(e.an.sel, rows, e.cfg)
	return driver, join, rows, cost + (ecost + rows*CostTuple), err
}

// choose picks the cheaper of the base-table plan and any view-rewritten
// plan without building either: run leaves the cheaper order in e, and
// view is the winning rewrite, nil when the base plan wins; rows and
// cost are the winner's. Of equal costs the base plan, then the view
// earlier in cfg.Views, wins.
func (e *orderEnum) choose() (view *viewRewrite, rows, cost float64, err error) {
	if err := e.run(); err != nil {
		return nil, 0, 0, err
	}
	rows, cost = e.rows, e.cost
	for _, v := range e.cfg.Views {
		if !viewOf(e.an.sel.From, v) {
			continue
		}
		r := e.o.rewriteOver(e.an, v)
		if r.sel == nil {
			continue
		}
		vrows, ecost, err := e.o.applyExists(r.sel, r.scan.Rows, e.cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		if vcost := r.scan.Cost + (ecost + vrows*CostTuple); vcost < cost {
			view, rows, cost = r, vrows, vcost
		}
	}
	return view, rows, cost, nil
}

// build makes choose's winner a Branch.
func (e *orderEnum) build(view *viewRewrite, rows, cost float64) *Branch {
	if view != nil {
		// Sel is the rewritten select: it is what executes.
		return &Branch{Sel: view.sel, View: view.view, Driver: view.scan, Rows: rows, Cost: cost, an: e.an}
	}
	b := &Branch{Sel: e.an.sel, Driver: e.driver, Rows: rows, Cost: cost, an: e.an}
	if len(e.an.from) == 2 {
		b.Joins = []Join{e.join}
	}
	return b
}

// sameFloat compares estimates to the bit, as the plans they end up in
// are compared.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bestTableAccess picks the cheapest access path for a driving table.
func (o *Optimizer) bestTableAccess(s *sqlast.Select, ft *fromTable, cfg *physical.Config) Access {
	table, ts, needed := ft.name, ft.ts, ft.needed
	vp := cfg.PartitionOf(table)
	best := o.scanAccess(table, ts, vp.GroupsForOrNil(needed))
	best.Rows = ft.rows
	if vp != nil {
		// Partitioned tables scan their groups; indexes target the base
		// table and are unavailable (Section 3.1 equivalence).
		best.Cost = o.partScanCost(vp, ts, best.Groups)
		return best
	}
	for _, idx := range cfg.Indexes {
		if idx.Table != table {
			continue
		}
		sp := sargablePred(s, table, idx.Key[0])
		if sp == nil {
			continue
		}
		ists := ts.Col(sp.Col.Column)
		if ists == nil {
			continue
		}
		matchFrac := ists.Selectivity(sp.Op, sp.Value) * (1 - ists.NullFrac)
		matchRows := float64(ts.Rows) * matchFrac
		covering := idx.Covers(needed)
		cost := CostSeek + matchRows*CostTuple
		if covering {
			cost += matchFrac * float64(idx.EstPages(ts))
		} else {
			cost += matchRows * CostRandIO
		}
		// Residual predicates beyond the seek multiply in.
		_, resSel := o.localRows(s, table, ts, sp)
		rows := math.Min(matchRows, float64(ts.Rows)) * resSel
		if cost < best.Cost {
			best = Access{
				Table: table, Kind: AccessSeek, Index: idx, Covering: covering,
				SeekPred: sp, Rows: rows, Cost: cost,
			}
		}
	}
	return best
}

// bestJoin picks hash vs index-nested-loop for the next inner table.
func (o *Optimizer) bestJoin(ft *fromTable, cfg *physical.Config, outerRows float64,
	outerCol, innerCol sqlast.ColRef) Join {
	inner, its, needed, innerRows := ft.name, ft.ts, ft.needed, ft.rows
	// Join output estimate: |O| * |I| / max(d(innerCol), 1).
	d := 1.0
	if cs := its.Col(innerCol.Column); cs != nil && cs.Distinct > 0 {
		d = float64(cs.Distinct)
	}
	outRows := outerRows * innerRows / math.Max(d, 1)
	if outRows > outerRows*innerRows {
		outRows = outerRows * innerRows
	}
	vp := cfg.PartitionOf(inner)
	// Hash join: scan inner fully, build, probe.
	innerScan := o.scanAccess(inner, its, vp.GroupsForOrNil(needed))
	if vp != nil {
		innerScan.Cost = o.partScanCost(vp, its, innerScan.Groups)
	}
	hashCost := innerScan.Cost + (outerRows+innerRows)*CostHashTuple
	best := Join{Method: JoinHash, Inner: innerScan, OuterCol: outerCol, InnerCol: innerCol,
		Rows: outRows, Cost: hashCost}
	if vp == nil {
		fanout := outRows / math.Max(outerRows, 1)
		for _, idx := range cfg.Indexes {
			if idx.Table != inner || idx.Key[0] != innerCol.Column {
				continue
			}
			covering := idx.Covers(needed)
			cost := outerRows * (CostSeek + fanout*CostTuple)
			if !covering {
				cost += outRows * CostRandIO
			}
			if cost < best.Cost {
				best = Join{Method: JoinINL,
					Inner:    Access{Table: inner, Kind: AccessSeek, Index: idx, Covering: covering},
					OuterCol: outerCol, InnerCol: innerCol, Rows: outRows, Cost: cost}
			}
		}
	}
	return best
}

// applyExists folds the EXISTS semi-joins of a fully joined branch; the
// outer column must belong to a FROM table.
func (o *Optimizer) applyExists(s *sqlast.Select, rows float64, cfg *physical.Config) (float64, float64, error) {
	var cost float64
	for i := range s.Where {
		p := &s.Where[i]
		if p.Kind != sqlast.PredExists && p.Kind != sqlast.PredOrExists {
			continue
		}
		inScope := false
		for _, t := range s.From {
			inScope = inScope || t == p.OuterCol.Table
		}
		if !inScope {
			return 0, 0, fmt.Errorf("optimizer: EXISTS outer column %s not in scope", p.OuterCol)
		}
		ets := o.Provider.TableStats(p.Table)
		if ets == nil {
			return 0, 0, fmt.Errorf("optimizer: no statistics for EXISTS table %s", p.Table)
		}
		// Probe via an index on the join column when available,
		// otherwise build a hash of the inner table once.
		indexed := false
		for _, idx := range cfg.Indexes {
			if idx.Table == p.Table && idx.Key[0] == p.JoinCol {
				indexed = true
				break
			}
		}
		if indexed {
			cost += rows * (CostSeek + CostTuple)
		} else {
			cost += float64(ets.Pages()) + float64(ets.Rows)*CostHashTuple + rows*CostHashTuple
		}
		// Selectivity of the semi-join (the OR part of PredOrExists is
		// already counted by localRows; keep the combined estimate simple
		// by treating the exists arm as additive match mass).
		if p.Kind == sqlast.PredExists {
			rows *= o.existsSelectivity(p, ets)
		}
	}
	return rows, cost, nil
}

func (o *Optimizer) existsSelectivity(p *sqlast.Pred, ets *stats.TableStats) float64 {
	matching := float64(ets.Rows)
	if cs := ets.Col(p.InnerCol); cs != nil {
		matching *= cs.Selectivity(p.Op, p.Value) * (1 - cs.NullFrac)
	}
	var parents float64 = 1
	if cs := ets.Col(p.JoinCol); cs != nil && cs.Distinct > 0 {
		parents = float64(cs.Distinct)
	}
	// P(parent has a matching child) assuming children spread evenly.
	perParent := matching / math.Max(parents, 1)
	sel := 1 - math.Exp(-perParent)
	if sel < 1e-9 {
		sel = 1e-9
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// localRows estimates a table's cardinality after its local predicates,
// excluding the given already-applied seek predicate.
func (o *Optimizer) localRows(s *sqlast.Select, table string, ts *stats.TableStats,
	skip *sqlast.Pred) (float64, float64) {
	sel := 1.0
	for i := range s.Where {
		p := &s.Where[i]
		if skip != nil && p == skip {
			continue
		}
		switch p.Kind {
		case sqlast.PredCompare:
			if p.Col.Table != table {
				continue
			}
			if cs := ts.Col(p.Col.Column); cs != nil {
				sel *= cs.Selectivity(p.Op, p.Value) * (1 - cs.NullFrac)
			}
		case sqlast.PredOrExists:
			if len(p.Cols) == 0 || p.Cols[0].Table != table {
				continue
			}
			keep := 1.0
			for _, c := range p.Cols {
				if cs := ts.Col(c.Column); cs != nil {
					keep *= 1 - cs.Selectivity(p.Op, p.Value)*(1-cs.NullFrac)
				}
			}
			sel *= 1 - keep*0.98 // small extra mass for the exists arm
		}
	}
	rows := float64(ts.Rows) * sel
	if rows < 0 {
		rows = 0
	}
	return rows, sel
}

// scanAccess costs a heap scan (or partition-group scan shell; the
// partition cost is filled by partScanCost).
func (o *Optimizer) scanAccess(table string, ts *stats.TableStats, groups []int) Access {
	return Access{
		Table:  table,
		Kind:   AccessScan,
		Groups: groups,
		Rows:   float64(ts.Rows),
		Cost:   float64(ts.Pages()) + float64(ts.Rows)*CostTuple,
	}
}

// partScanCost costs reading and aligning the needed partition groups.
func (o *Optimizer) partScanCost(vp *physical.VPartition, ts *stats.TableStats, groups []int) float64 {
	if ts == nil {
		return 0
	}
	total := math.Max(ts.RowBytes, 1)
	var cost float64
	for _, g := range groups {
		var gw float64 = 16 // replicated keys
		for _, c := range vp.Groups[g] {
			if cs := ts.Col(c); cs != nil {
				gw += (1 - cs.NullFrac) * math.Max(cs.AvgWidth, 1)
			} else {
				gw += 8
			}
		}
		frac := gw / (total + 16)
		if frac > 1 {
			frac = 1
		}
		pages := math.Ceil(float64(ts.Pages()) * frac)
		cost += pages + float64(ts.Rows)*CostTuple
	}
	if len(groups) > 1 {
		cost += float64(ts.Rows) * CostHashTuple * float64(len(groups)-1)
	}
	return cost
}

// sargablePred returns the first equality/range compare on the given
// table and column.
func sargablePred(s *sqlast.Select, table, col string) *sqlast.Pred {
	for i := range s.Where {
		p := &s.Where[i]
		if p.Kind == sqlast.PredCompare && p.Col.Table == table && p.Col.Column == col && p.Op != sqlast.OpNe {
			return p
		}
	}
	return nil
}

// RewriteOverView rewrites a two-table join branch over a matching
// materialized view; ok is false when the view does not apply. It
// decides that before allocating anything, so a candidate view that does
// not apply costs no garbage, and then allocates the rewrite at its
// exact size.
func RewriteOverView(s *sqlast.Select, v *physical.View) (*sqlast.Select, bool) {
	if len(s.From) != 2 {
		return nil, false
	}
	hasOuter, hasInner := false, false
	for _, t := range s.From {
		if t == v.Outer {
			hasOuter = true
		}
		if t == v.Inner {
			hasInner = true
		}
	}
	if !hasOuter || !hasInner {
		return nil, false
	}
	// The join must be Inner.PID = Outer.ID.
	joinOK := false
	for _, p := range s.Where {
		if p.Kind != sqlast.PredJoin {
			continue
		}
		l, r := p.Left, p.Right
		if l.Table == v.Outer {
			l, r = r, l
		}
		if l.Table == v.Inner && l.Column == rel.PIDColumn && r.Table == v.Outer && r.Column == rel.IDColumn {
			joinOK = true
		}
	}
	if !joinOK {
		return nil, false
	}
	// Every referenced column must be carried by the view. Count what the
	// rewrite holds on the way: item columns, kept predicates and their
	// column lists.
	itemCols, preds, predCols := 0, 0, 0
	for _, it := range s.Items {
		if it.Col != nil {
			if !carries(v, *it.Col) {
				return nil, false
			}
			itemCols++
		}
	}
	for i := range s.Where {
		p := &s.Where[i]
		switch p.Kind {
		case sqlast.PredJoin:
			continue // absorbed by the view
		case sqlast.PredCompare:
			if !carries(v, p.Col) {
				return nil, false
			}
		case sqlast.PredExists, sqlast.PredOrExists:
			if !carries(v, p.OuterCol) {
				return nil, false
			}
			for _, c := range p.Cols {
				if !carries(v, c) {
					return nil, false
				}
			}
			predCols += len(p.Cols)
		}
		preds++
	}
	out := &sqlast.Select{From: []string{v.Name}}
	if len(s.Items) > 0 {
		out.Items = make([]sqlast.SelectItem, len(s.Items))
	}
	// The mapped item columns share one block, as do the predicates'
	// column lists, each cut with its capacity at its length.
	itemBlock := make([]sqlast.ColRef, itemCols)
	for i, it := range s.Items {
		if it.Col != nil {
			itemBlock[0] = viewCol(v, *it.Col)
			it.Col, itemBlock = &itemBlock[0], itemBlock[1:]
		}
		out.Items[i] = it
	}
	if preds > 0 {
		out.Where = make([]sqlast.Pred, 0, preds)
	}
	predBlock := make([]sqlast.ColRef, predCols)
	for _, p := range s.Where {
		switch p.Kind {
		case sqlast.PredJoin:
			continue
		case sqlast.PredCompare:
			p.Col = viewCol(v, p.Col)
		case sqlast.PredExists, sqlast.PredOrExists:
			p.OuterCol = viewCol(v, p.OuterCol)
			cols := p.Cols
			p.Cols = nil
			if n := len(cols); n > 0 {
				p.Cols, predBlock = predBlock[:n:n], predBlock[n:]
				for j, c := range cols {
					p.Cols[j] = viewCol(v, c)
				}
			}
		}
		out.Where = append(out.Where, p)
	}
	return out, true
}

// carries reports whether the view carries the column, or the column is
// of neither of its tables (e.g. an EXISTS inner table column) and
// passes through unchanged. It is View.ViewColumn's lookup without the
// name it builds.
func carries(v *physical.View, c sqlast.ColRef) bool {
	switch c.Table {
	case v.Inner:
		return slices.Contains(v.InnerCols, c.Column)
	case v.Outer:
		return slices.Contains(v.OuterCols, c.Column)
	}
	return true
}

// viewCol maps a column carries accepts to the view's column.
func viewCol(v *physical.View, c sqlast.ColRef) sqlast.ColRef {
	if c.Table != v.Outer && c.Table != v.Inner {
		return c
	}
	return sqlast.ColRef{Table: v.Name, Column: v.ViewColumn(c.Table, c.Column)}
}
