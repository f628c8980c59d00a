package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// PreparedPlan is the compiled, reusable form of an optimizer plan
// over one Built: a pipelined batch executor per union branch, with
// predicate closures, projection layouts, and probe structures (join
// hash tables, EXISTS sets) resolved once at compile time against the
// Built's plan-lifetime caches. Executing a
// PreparedPlan allocates no per-row intermediates: operators pass
// fixed-size rel.Batch blocks with selection vectors, scans and joins
// fill pooled batch arenas with narrow tuples — only the columns the
// branch references, copied from column vectors (see colFill) — and only
// the projected output is freshly allocated: one value arena per batch,
// plus the result's row headers, cut once at their exact count (see
// assemble).
//
// A PreparedPlan is safe for concurrent ExecuteContextWorkers calls —
// a plan cached on a Built is shared by every session that prepares the
// same plan, so the worker count travels with each call, not on the
// plan; per-execution operator state comes from a pool.
type PreparedPlan struct {
	built *Built
	plan  *optimizer.Plan
	cols  []string
	// orderPos is the output position of the ORDER BY column, -1 when the
	// query has none.
	orderPos int
	branches []*preparedBranch
}

// Prepare compiles a plan for the batch executor. All plan-shape
// errors the row-at-a-time executor reported during execution (unknown
// tables, unbuilt indexes, out-of-scope columns, unapplied predicates,
// an ORDER BY column missing from the output) are reported here
// instead, once.
func Prepare(b *Built, plan *optimizer.Plan) (*PreparedPlan, error) {
	pp := &PreparedPlan{built: b, plan: plan, cols: plan.Query.OutputColumns(), orderPos: -1}
	if ob := plan.Query.OrderBy; ob != "" {
		pp.orderPos = slices.Index(pp.cols, ob)
		if pp.orderPos < 0 {
			return nil, fmt.Errorf("engine: ORDER BY column %s missing from output", ob)
		}
	}
	// A scan asks its source for the columns it reads and no others, and
	// every branch that scans one table asks for one set, their union: the
	// first branch to reach a chunk faults what all of them read, so a
	// union still reads each chunk once (claimOrder walks them together).
	need := make(map[*rel.Table][]int)
	for _, br := range plan.Branches {
		pb, err := prepareBranch(b, br)
		if err != nil {
			return nil, err
		}
		pp.branches = append(pp.branches, pb)
		if pb.src.kind == srcScan {
			need[pb.src.table] = append(need[pb.src.table], pb.scanColumns()...)
		}
	}
	for t, cols := range need {
		slices.Sort(cols)
		if cols = slices.Compact(cols); len(cols) == 0 {
			// A scan that reads no column still has its chunks verified
			// before their rows count: it asks for the first column.
			cols = []int{0}
		}
		need[t] = cols
	}
	for _, pb := range pp.branches {
		if pb.src.kind == srcScan {
			pb.src.need = need[pb.src.table]
		}
	}
	return pp, nil
}

// scanColumns lists the driver columns a scan branch reads: every column
// its kernels and fills read.
func (pb *preparedBranch) scanColumns() []int {
	var cols []int
	for _, r := range pb.src.refs {
		cols = append(cols, r.col)
	}
	for _, p := range pb.kernPreds {
		refs := p.Cols
		switch p.Kind {
		case sqlast.PredCompare:
			refs = []sqlast.ColRef{p.Col}
		case sqlast.PredExists, sqlast.PredOrExists:
			refs = append(refs[:len(refs):len(refs)], p.OuterCol)
		}
		for _, c := range refs {
			if ci, err := pb.scope.col(c); err == nil { // compiling the kernel resolved it
				cols = append(cols, ci)
			}
		}
	}
	return cols
}

// ExecuteContextWorkers runs the prepared plan on exactly `workers`
// goroutines, the caller's included: 0 or 1 is the caller alone,
// workers < 0 means GOMAXPROCS. Every branch's driver (table scan, index
// range scan, or partition-group scan) is split into morsels, and the
// morsels of all branches are claimed from one task list (see
// executeMorsels), so with several workers a single wide scan — and the
// hash-join probes and filters downstream of it — runs on several cores
// at once. Each morsel lands in a fixed slot and assemble reads the
// slots in plan order, so rows, order, values, and stats are
// bit-identical at any count.
//
// ctx cancels the execution: cancellation is polled once per driver
// batch, so a cancelled call returns ctx's error promptly without
// finishing the scan or join it was in. A cancelled execution never
// poisons the Built's single-flight structure caches (structure builds
// always run to completion; see cacheGet) and returns pooled operator
// state for reuse, so a later call on the same PreparedPlan succeeds
// with warm caches.
func (pp *PreparedPlan) ExecuteContextWorkers(ctx context.Context, workers int) (*Result, error) {
	var tr *obs.Tracer
	var reg *obs.Registry
	if pp.built != nil {
		tr, reg = pp.built.obsTracer, pp.built.obsReg
	}
	if err := ctx.Err(); err != nil {
		reg.Counter("engine.exec.cancellations").Inc()
		return nil, err
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	n := len(pp.branches)
	sp := tr.StartSpan("executor.execute",
		obs.Int("branches", int64(n)), obs.Int("workers", int64(workers)))
	res, err := pp.executeMorsels(ctx, sp, reg, workers)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		if ctx.Err() != nil {
			reg.Counter("engine.exec.cancellations").Inc()
		}
		return nil, err
	}
	sp.SetAttr(obs.Int("rows_out", int64(len(res.Rows))),
		obs.Int("rows_scanned", res.Stats.RowsScanned),
		obs.Int("rows_sought", res.Stats.RowsSought))
	sp.End()
	reg.Counter("engine.exec.executions").Inc()
	reg.Counter("engine.exec.rows_out").Add(int64(len(res.Rows)))
	reg.Counter("engine.exec.rows_scanned").Add(res.Stats.RowsScanned)
	reg.Counter("engine.exec.rows_sought").Add(res.Stats.RowsSought)
	return res, nil
}

// srcKind discriminates driver sources.
type srcKind int

const (
	srcScan srcKind = iota
	srcSeek
)

// driverSrc is the compiled driving access of a branch.
type driverSrc struct {
	kind srcKind
	// table is the driver table — for a scan over a registered source,
	// possibly an unhydrated shell; for a partition scan, the base table
	// (see addPartition).
	table   *rel.Table
	bi      *builtIndex
	seekOp  opKind
	seekVal rel.Value
	// groups is what one scanned driver row charges to RowsScanned: the
	// number of partition groups a partition scan reads, 1 for a plain
	// scan.
	groups int
	// chunks feeds a srcScan driver: the scan pulls resident fragments
	// from the source one chunk at a time, so peak scan memory follows
	// the source's paging budget. A resident table is its own single
	// chunk (see tableSource).
	chunks ScanSource
	// need is the column set a srcScan driver fetches (ScanSource's
	// ChunkColumns): ascending, the union of what every branch of the
	// plan scanning this table reads (see Prepare).
	need []int
	// refs are the driver columns the branch's tuples carry. fills lands
	// them for a seek driver, whose table is fixed at Prepare; a scan
	// compiles its fills against each fragment it acquires.
	refs  []colRef
	fills []colFill
}

// pipeKind discriminates pipeline operators.
type pipeKind int

const (
	pipeFilter pipeKind = iota
	pipeHashJoin
	pipeINLJoin
)

// pipeOp is one compiled pipeline operator.
type pipeOp struct {
	kind pipeKind

	// pred filters tuples in place on the selection vector (pipeFilter).
	pred func([]rel.Value) bool

	// Join fields: the outer key's tuple slot, the operator's output
	// batch in branchState, and the fills that land the referenced inner
	// columns for the matched inner row ids. inner and innerTable name
	// the inner source until prepareBranch has compiled everything that
	// can reference it and resolves fills.
	outerSlot  int
	out        int
	fills      []colFill
	inner      *scopeTable
	innerTable *rel.Table

	// Hash join: cached build side, plus the per-execution scan
	// accounting its inner source incurs (the reference executor
	// re-scans the build side every execution; the batch executor
	// charges the same counters but skips the rebuild).
	jt        *joinTable
	scanCount int64 // RowsScanned per run

	// INL join.
	bi *builtIndex
}

// proj is one projection slot.
type proj struct {
	pos  int
	null bool
}

// preparedBranch is one compiled union branch.
type preparedBranch struct {
	src driverSrc
	// kerns are the driver-stage columnar filter kernels: every
	// predicate applied before the first join, compiled against
	// src.table's column vectors whatever the driver kind. They run over
	// the selection vector of driver row ids before any tuple is filled,
	// in the same WHERE order the reference executor applies.
	kerns []colKernel
	ops   []pipeOp
	projs []proj
	// width is the branch's tuple width: the number of distinct columns
	// referenced after the driver stage (scope.slots). Every batch of the
	// branch is this wide; a join copies its outer tuple and fills the
	// inner table's slots.
	width  int
	nJoins int
	// kernPreds are the predicates kerns was compiled from, in the same
	// order. A scan recompiles them against each acquired fragment that
	// is not src.table itself (see fragKernels) — every kernel is
	// bit-equivalent to matchCompare, so recompilation cannot change
	// results, and chunk-local structures (string dictionaries) get
	// chunk-local kernels.
	kernPreds []*sqlast.Pred
	// scope is the branch scope, kept for fragKernels, which only reads
	// it (scope.col).
	scope *scope
	// built backs fragKernels (EXISTS probe-set lookups go through its
	// single-flighted cache).
	built *Built
	// pool recycles per-execution operator state (batch buffers) across
	// executions of this branch.
	pool sync.Pool
}

// branchState is the per-execution operator state: the driver batch the
// scan fills, the driver selection vector the columnar kernels compact,
// and per join operator one output batch plus the matched inner row ids
// of the tuples in it.
type branchState struct {
	in      *rel.Batch
	sel     []int32
	joinOut []*rel.Batch
	rids    [][]int32
}

func resolveTable(b *Built, name string) *rel.Table {
	if vt := b.ViewTable(name); vt != nil {
		return vt
	}
	return b.DB.Table(name)
}

func colNames(t *rel.Table) []string {
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return cols
}

// addPartition puts access a's partition groups in scope and returns
// their base table. A partition is a set of the table's columns, so only
// the columns the named groups hold — and the ID and PID every group
// replicates — resolve in scope, and a plan reaching outside its groups
// fails as it would over separate group tables.
func addPartition(b *Built, sc *scope, a optimizer.Access) (*rel.Table, *scopeTable, error) {
	t, groups, err := partitionColumns(b.DB, b.Config.PartitionOf(a.Table))
	if err != nil {
		return nil, nil, err
	}
	st := sc.add(a.Table, nil)
	for _, g := range a.Groups {
		if g < 0 || g >= len(groups) {
			return nil, nil, fmt.Errorf("engine: %s has no partition group %d", a.Table, g)
		}
		for _, ci := range groups[g] {
			st.cols[t.Columns[ci].Name] = ci
		}
	}
	return t, st, nil
}

func prepareBranch(b *Built, br *optimizer.Branch) (*preparedBranch, error) {
	sc := newScope()
	pb := &preparedBranch{built: b, scope: sc}
	a := br.Driver
	t := resolveTable(b, a.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %s", a.Table)
	}
	var driver *scopeTable
	if len(a.Groups) > 0 {
		var err error
		if t, driver, err = addPartition(b, sc, a); err != nil {
			return nil, err
		}
	} else {
		driver = sc.add(a.Table, colNames(t))
	}
	if a.Kind == optimizer.AccessSeek && len(a.Groups) == 0 {
		bi := b.Index(a.Index)
		if bi == nil {
			return nil, fmt.Errorf("engine: index %s not built", a.Index.Name)
		}
		if a.SeekPred == nil {
			return nil, fmt.Errorf("engine: seek access without predicate on %s", a.Table)
		}
		if err := t.Hydrate(); err != nil {
			return nil, err
		}
		pb.src = driverSrc{kind: srcSeek, table: t, bi: bi,
			seekOp: opFromCmp(a.SeekPred.Op), seekVal: a.SeekPred.Value}
	} else {
		// A partition scan is a plain scan of its base table that reads
		// only the columns of the groups it names and counts each row it
		// scans once per group.
		src, err := b.driverSource(a.Table, t)
		if err != nil {
			return nil, err
		}
		pb.src = driverSrc{kind: srcScan, table: t, chunks: src, groups: max(1, len(a.Groups))}
	}
	applied := make(map[int]bool)
	// Driver-stage filters compile to columnar kernels over the driver
	// table; everything after the first join filters filled tuples.
	if err := pb.appendFilters(b, br, sc, applied, pb.src.table); err != nil {
		return nil, err
	}
	for _, j := range br.Joins {
		if err := pb.appendJoin(b, br, sc, j); err != nil {
			return nil, err
		}
		if err := pb.appendFilters(b, br, sc, applied, nil); err != nil {
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
	for _, it := range br.Sel.Items {
		if it.Col == nil {
			pb.projs = append(pb.projs, proj{null: true})
			continue
		}
		pos, err := sc.slot(*it.Col)
		if err != nil {
			return nil, err
		}
		pb.projs = append(pb.projs, proj{pos: pos})
	}
	// Every reference is resolved: the referenced set of each table in
	// scope is final, and so are the tuple width and the fills.
	pb.width = sc.slots
	pb.src.refs = driver.refs
	if pb.src.kind == srcSeek {
		pb.src.fills = tableFills(pb.src.table, driver.refs)
	}
	for i := range pb.ops {
		if op := &pb.ops[i]; op.innerTable != nil {
			op.fills = tableFills(op.innerTable, op.inner.refs)
		}
	}
	pb.initPool()
	return pb, nil
}

// appendFilters compiles every not-yet-applied predicate whose
// referenced tables are in scope, in WHERE order — the same
// application order as the reference executor's applyPreds passes.
// When kt is non-nil (the driver-stage pass) each predicate compiles to
// a columnar kernel over kt's vectors instead of a row closure; kernels
// run in the same order the closures would have.
func (pb *preparedBranch) appendFilters(b *Built, br *optimizer.Branch, sc *scope, applied map[int]bool, kt *rel.Table) error {
	s := br.Sel
	for i := range s.Where {
		p := &s.Where[i]
		if applied[i] || p.Kind == sqlast.PredJoin || p == br.Driver.SeekPred {
			continue
		}
		if !predInScope(p, sc) {
			continue
		}
		if kt != nil {
			k, err := compileColKernel(b, p, kt, sc)
			if err != nil {
				return err
			}
			if k != nil {
				pb.kerns = append(pb.kerns, k)
				pb.kernPreds = append(pb.kernPreds, p)
				applied[i] = true
				continue
			}
		}
		f, err := compileBatchPred(b, p, sc)
		if err != nil {
			return err
		}
		pb.ops = append(pb.ops, pipeOp{kind: pipeFilter, pred: f})
		applied[i] = true
	}
	return nil
}

// appendJoin compiles one join step, resolving the build side through
// the Built's structure caches.
func (pb *preparedBranch) appendJoin(b *Built, br *optimizer.Branch, sc *scope, j optimizer.Join) error {
	outerSlot, err := sc.slot(j.OuterCol)
	if err != nil {
		return err
	}
	op := pipeOp{kind: pipeHashJoin, outerSlot: outerSlot, out: pb.nJoins}
	pb.nJoins++
	if j.Method == optimizer.JoinINL {
		bi := b.Index(j.Inner.Index)
		if bi == nil {
			return fmt.Errorf("engine: INL index %s not built", j.Inner.Index.Name)
		}
		op.kind, op.bi, op.innerTable = pipeINLJoin, bi, bi.table
		op.inner = sc.add(j.Inner.Table, colNames(bi.table))
		pb.ops = append(pb.ops, op)
		return nil
	}
	// Hash join: resolve the inner source, its size, and its key column.
	// The build side is always a whole table, view, or partition: the
	// optimizer never feeds a hash join from a seek (scanAccess), and a
	// plan that does is refused rather than built privately.
	a := j.Inner
	if a.Kind == optimizer.AccessSeek {
		return fmt.Errorf("engine: hash join on %s fed by a seek; a hash join's build side is a scan", a.Table)
	}
	var t *rel.Table
	var srcKey string
	var n int
	if len(a.Groups) > 0 {
		// A partition's build side is its base table's: both share one
		// cached join table, and only the per-run scan accounting differs.
		if t, op.inner, err = addPartition(b, sc, a); err != nil {
			return err
		}
		if err := t.Hydrate(); err != nil {
			return err
		}
		n, srcKey = t.RowCount(), "t:"+a.Table
		op.scanCount = int64(n * len(a.Groups))
	} else {
		if t = resolveTable(b, a.Table); t == nil {
			return fmt.Errorf("engine: unknown table %s", a.Table)
		}
		if err := t.Hydrate(); err != nil {
			return err
		}
		op.inner = sc.add(a.Table, colNames(t))
		n, srcKey = t.RowCount(), "t:"+a.Table
		if b.ViewTable(a.Table) != nil {
			srcKey = "v:" + a.Table
		}
		op.scanCount = int64(n)
	}
	op.innerTable = t
	ji, ok := op.inner.cols[j.InnerCol.Column]
	if !ok {
		return fmt.Errorf("engine: join column %s missing from %s", j.InnerCol, j.Inner.Table)
	}
	op.jt, err = b.hashJoinTable(srcKey, j.InnerCol.Column, n, func(i int) rel.Value { return t.ValueAt(i, ji) })
	if err != nil {
		return err
	}
	pb.ops = append(pb.ops, op)
	return nil
}

// compileBatchPred builds a boolean tuple predicate with every column's
// tuple slot and every probe structure resolved at compile time.
func compileBatchPred(b *Built, p *sqlast.Pred, sc *scope) (func([]rel.Value) bool, error) {
	switch p.Kind {
	case sqlast.PredCompare:
		pos, err := sc.slot(p.Col)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			return matchCompare(r[pos], p.Op, p.Value)
		}, nil
	case sqlast.PredOr:
		positions, err := colPositions(sc.slot, p.Cols)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			for _, pos := range positions {
				if matchCompare(r[pos], p.Op, p.Value) {
					return true
				}
			}
			return false
		}, nil
	case sqlast.PredExists, sqlast.PredOrExists:
		positions, err := colPositions(sc.slot, p.Cols)
		if err != nil {
			return nil, err
		}
		outerPos, err := sc.slot(p.OuterCol)
		if err != nil {
			return nil, err
		}
		set, err := b.existsProbeSet(p)
		if err != nil {
			return nil, err
		}
		return func(r []rel.Value) bool {
			for _, pos := range positions {
				if matchCompare(r[pos], p.Op, p.Value) {
					return true
				}
			}
			return set.match(r[outerPos])
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile predicate %s", p)
}

// initPool wires the per-execution state pool: the driver batch and one
// output batch per join operator, all as wide as the branch's tuples.
func (pb *preparedBranch) initPool() {
	pb.pool.New = func() any {
		st := &branchState{in: rel.NewBatch(pb.width), sel: make([]int32, 0, rel.BatchSize),
			joinOut: make([]*rel.Batch, pb.nJoins), rids: make([][]int32, pb.nJoins)}
		for i := range st.joinOut {
			st.joinOut[i] = rel.NewBatch(pb.width)
			st.rids[i] = make([]int32, 0, rel.BatchSize)
		}
		return st
	}
}

// precharge charges the hash-join build-side scan counters. The
// reference executor re-fetches every build side once per execution,
// even when the driver produces no rows; charging the same counters up
// front — once per branch, never per morsel — keeps Stats aligned at any
// worker count.
func (pb *preparedBranch) precharge(st *ExecStats) {
	for i := range pb.ops {
		op := &pb.ops[i]
		if op.kind == pipeHashJoin {
			st.RowsScanned += op.scanCount
		}
	}
}

// resolveDriver materializes the branch's driver row set: the number of
// driver rows, plus — for index range seeks — the matching row ids (in
// index order), whose seek cost is charged here, once per branch. Scans
// drive off row positions and return nil ids.
func (pb *preparedBranch) resolveDriver(st *ExecStats) (int, []int) {
	if pb.src.kind == srcSeek {
		ids := pb.src.bi.seekRange(pb.src.seekOp, pb.src.seekVal)
		st.RowsSought += int64(len(ids))
		return len(ids), ids
	}
	return pb.src.chunks.RowCount(), nil
}

// fragKernels returns the driver-stage kernels for one acquired scan
// fragment. A resident table is its own fragment, so the kernels
// compiled against it at Prepare serve as they are; any other fragment
// gets kernels compiled against its own vectors. The compile is cheap
// (scope positions resolve in a two-level map, EXISTS probe sets come
// from the Built's single-flighted cache) and chunk-local: a string
// range predicate precomputes its match table against the chunk's own
// dictionary. Kernels operate on fragment-local row ids.
func (pb *preparedBranch) fragKernels(frag *rel.Table) ([]colKernel, error) {
	if frag == pb.src.table {
		return pb.kerns, nil
	}
	ks := make([]colKernel, 0, len(pb.kernPreds))
	for _, p := range pb.kernPreds {
		k, err := compileColKernel(pb.built, p, frag, pb.scope)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// morselRanges splits the branch's n driver rows into morsel ranges.
// Scans split along their source's chunk spans; a seek driver is one
// span of n rows.
func (pb *preparedBranch) morselRanges(n int) [][2]int {
	if pb.src.kind == srcScan {
		return morselRanges(pb.src.chunks.NumChunks(), pb.src.chunks.ChunkSpan)
	}
	return morselRanges(1, func(int) (int, int) { return 0, n })
}

// morselRanges tiles nc contiguous chunk spans with morsel ranges: each
// chunk is cut into pieces of at most morselRows, and consecutive
// pieces accumulate until a morsel reaches morselRows. A chunk that
// fits a morsel is therefore never split, so the worker that faults it
// is the only one holding it; a single chunk — a resident table, a
// seek's id list — splits on the fixed stride.
func morselRanges(nc int, span func(k int) (lo, hi int)) [][2]int {
	var out [][2]int
	lo, end := 0, 0 // the morsel being accumulated is [lo, end)
	for k := 0; k < nc; k++ {
		clo, chi := span(k)
		for end = clo; end < chi; {
			end = min(end+morselRows, chi)
			if end-lo >= morselRows {
				out = append(out, [2]int{lo, end})
				lo = end
			}
		}
	}
	if end > lo {
		out = append(out, [2]int{lo, end})
	}
	return out
}

// runRange pushes driver rows [lo, hi) through the branch pipeline and
// emits the projected rows into out (arenas, row count, stats) in
// pipeline order. Output depends only on the driver rows' order —
// operators keep no state across rows, and batch boundaries never split
// a row's join expansion out of order — so reading adjacent ranges'
// slots back to back equals one big run, which is what makes results
// bit-identical however the driver is cut into morsels. ctx is polled once per driver
// batch; on cancellation the pipeline stops promptly, pooled state is
// still returned for reuse, and ctx's error is reported.
func (pb *preparedBranch) runRange(ctx context.Context, out *outSlot, ids []int, lo, hi int) error {
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	state := pb.pool.Get().(*branchState)
	defer pb.pool.Put(state)
	st := &out.st
	np, w := len(pb.projs), pb.width
	out.width = np

	// sink projects a batch's live tuples into one fresh, exactly-sized
	// arena; the rows themselves are cut later, once (see assemble).
	sink := func(bt *rel.Batch) {
		n := bt.Len()
		out.rows += n
		if n == 0 || np == 0 {
			return
		}
		arena := make([]rel.Value, n*np)
		k := 0
		for _, si := range bt.Sel {
			r := bt.Row(si)
			for _, pr := range pb.projs {
				if pr.null {
					arena[k] = rel.NullOf(rel.TString)
				} else {
					arena[k] = r[pr.pos]
				}
				k++
			}
		}
		out.arenas = append(out.arenas, arena)
	}

	// process pushes a batch through the operators starting at oi.
	var process func(oi int, bt *rel.Batch)
	process = func(oi int, bt *rel.Batch) {
		for ; oi < len(pb.ops); oi++ {
			op := &pb.ops[oi]
			if op.kind == pipeFilter {
				bt.FilterSel(op.pred)
				if bt.Len() == 0 {
					return
				}
				continue
			}
			// A join copies each outer tuple once per match into its output
			// batch and remembers the matched inner row; a full batch has
			// its inner columns filled, column by column, and moves on.
			ob, rids := state.joinOut[op.out], state.rids[op.out][:0]
			ob.Reset()
			flush := func() {
				for i := range op.fills {
					op.fills[i].fill(ob.Arena(), w, rids)
				}
				process(oi+1, ob)
				ob.Reset()
				rids = rids[:0]
			}
			emit := func(orow []rel.Value, rid int32) {
				copy(ob.AppendArena(1), orow)
				rids = append(rids, rid)
				if ob.Full() {
					flush()
				}
			}
			jt := op.jt
			for _, si := range bt.Sel {
				orow := bt.Row(si)
				v := orow[op.outerSlot]
				switch {
				case v.Null:
				case op.kind == pipeINLJoin:
					for _, rid := range op.bi.seekEqual(v) {
						st.RowsSought++
						emit(orow, int32(rid))
					}
				case !jt.intKeys:
					for _, i := range jt.str[v.String()] {
						emit(orow, i)
					}
				case v.Typ == rel.TInt:
					i, ok := jt.head[v.I]
					for ok && i >= 0 {
						emit(orow, i)
						i = jt.next[i]
					}
				}
			}
			if ob.Len() > 0 {
				flush()
			}
			return
		}
		sink(bt)
	}

	// feedSel compacts a selection vector of driver row ids with the
	// driver-stage kernels, fills the survivors' referenced columns into
	// the driver batch, and pushes it through the remaining (join and
	// post-join) operators.
	feedSel := func(kerns []colKernel, fills []colFill, sel []int32) {
		for _, k := range kerns {
			sel = k(sel)
			if len(sel) == 0 {
				return
			}
		}
		bt := state.in
		bt.Reset()
		region := bt.AppendArena(len(sel))
		for i := range fills {
			fills[i].fill(region, w, sel)
		}
		process(0, bt)
	}
	// scanChunk scans rows [s0, e0) of chunk k (chunk-local ids): acquire
	// the fragment with the columns the scan reads from the source, filter
	// it with kernels and fill from it with fills compiled for that
	// fragment, and release it before returning — a paged fragment is
	// resident only between the fetch and release, so peak scan memory
	// follows the source's budget, and nothing is cached on a fragment (a
	// pager-cached chunk is shared and budgeted by its columns' encoded
	// bytes).
	scanChunk := func(k, s0, e0 int) error {
		frag, release, err := pb.src.chunks.ChunkColumns(k, pb.src.need)
		if err != nil {
			return err
		}
		defer release()
		kerns, err := pb.fragKernels(frag)
		if err != nil {
			return err
		}
		fills := tableFills(frag, pb.src.refs)
		for start := s0; start < e0; start += rel.BatchSize {
			if cancelled() {
				return ctx.Err()
			}
			end := min(start+rel.BatchSize, e0)
			st.RowsScanned += int64((end - start) * pb.src.groups)
			sel := state.sel[:0]
			for r := start; r < end; r++ {
				sel = append(sel, int32(r))
			}
			feedSel(kerns, fills, sel)
		}
		return nil
	}
	if pb.src.kind == srcSeek {
		// One span of driver positions, indexing the seek's id list.
		for start := lo; start < hi; start += rel.BatchSize {
			if cancelled() {
				return ctx.Err()
			}
			sel := state.sel[:0]
			for _, id := range ids[start:min(start+rel.BatchSize, hi)] {
				sel = append(sel, int32(id))
			}
			feedSel(pb.kerns, pb.src.fills, sel)
		}
		return nil
	}
	// Batches never span chunks, but every operator is per-row and the
	// scan cost is charged per row, so rows, order and stats do not depend
	// on where the source's chunks end.
	src := pb.src.chunks
	for k, nc := 0, src.NumChunks(); k < nc; k++ {
		clo, chi := src.ChunkSpan(k)
		if chi <= lo {
			continue
		}
		if clo >= hi {
			break
		}
		if err := scanChunk(k, max(lo, clo)-clo, min(hi, chi)-clo); err != nil {
			return err
		}
	}
	return nil
}
