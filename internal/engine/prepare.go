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
// predicate kernels, projection fills, and the key indexes its joins and
// EXISTS probe resolved once at compile time against the Built's
// plan-lifetime caches. The pipeline carries row ids, not
// values: a batch is one []int32 row-id vector per table in scope — the
// driver is table 0, join j's inner table j+1 (scopeTable.idx) — of at
// most batchSize rows. Kernels compact the driver's vector, joins read
// their outer key straight from the outer table's column vector and
// append row ids to their output vectors, and post-join filters run
// the same columnar kernels over the row ids of the table they read.
// The only rel.Value an execution writes is a result cell: the sink
// copies each projected column from its column vector into one fresh,
// exactly-sized arena per batch (see colFill), and assemble cuts the
// result's row headers once, at their exact count. The byte target
// (AppendRows) fills a pooled scratch batch instead and keeps only each
// row's encoding.
//
// A PreparedPlan is safe for concurrent ExecuteContextWorkers and
// AppendRows calls — a plan cached on a Built is shared by every session
// that prepares the same plan, so the worker count travels with each
// call, not on the plan; per-execution operator state (row-id vectors)
// comes from a pool.
type PreparedPlan struct {
	built *Built
	plan  *optimizer.Plan
	cols  []string
	// orderPos is the output position of the ORDER BY column, -1 when the
	// query has none; in every branch it is a non-nullable INT column
	// (see orderKey).
	orderPos int
	branches []*preparedBranch
}

// batchSize is the number of rows a pipeline batch holds: driver row
// ids per kernel pass, join matches per output batch.
const batchSize = 1024

// Prepare compiles a plan for the batch executor. All plan-shape
// errors the row-at-a-time executor reported during execution (unknown
// tables, unbuilt indexes, out-of-scope columns, unapplied predicates,
// an ORDER BY that is not document order, a shape no plan carries) are
// reported here instead, once.
func Prepare(b *Built, plan *optimizer.Plan) (*PreparedPlan, error) {
	if err := planShape(b, plan); err != nil {
		return nil, err
	}
	orderPos, err := orderKey(b, plan)
	if err != nil {
		return nil, err
	}
	pp := &PreparedPlan{built: b, plan: plan, cols: plan.Query.OutputColumns(), orderPos: orderPos}
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
			need[pb.src.table] = append(need[pb.src.table], pb.src.refs...)
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
		pb.orderOut = slices.IndexFunc(pb.outs, func(o outCol) bool { return o.pos == pp.orderPos })
	}
	return pp, nil
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
	res := &Result{Cols: pp.cols}
	var err error
	_, res.Stats, err = pp.execute(ctx, workers, nil, func(slots []outSlot) {
		res.Rows = assemble(slots, pp.orderPos)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RowEncoder appends the encoding of one result row to dst and returns
// the extended buffer. The row's values are valid only during the call.
type RowEncoder func(dst []byte, row []rel.Value) []byte

// AppendRows runs the plan as ExecuteContextWorkers does — same
// workers, cancellation, rows, order and stats — but builds no result
// rows: it appends enc's encoding of every row to dst in result order
// and returns the extended buffer with the row count and stats. This is
// the byte target: the sink fills a pooled scratch batch through the
// same column fills, encodes each row into a pooled row block beside
// the batch's key block, and assembleBytes copies the blocks' bytes to
// dst in plan order or through the same key merge, so an execution
// writes no result cell, no arena and no row header of its own. The
// bytes equal encoding ExecuteContextWorkers's rows with enc.
func (pp *PreparedPlan) AppendRows(ctx context.Context, workers int, dst []byte, enc RowEncoder) ([]byte, int, ExecStats, error) {
	n, st, err := pp.execute(ctx, workers, enc, func(slots []outSlot) {
		dst = assembleBytes(dst, slots, pp.orderPos)
	})
	return dst, n, st, err
}

// Cols are the output column names of the plan's result.
func (pp *PreparedPlan) Cols() []string { return pp.cols }

// execute is both targets' execution: resolve the worker count, run the
// morsels into slots (value arenas when enc is nil, row blocks encoded
// by enc otherwise) and hand the slots to finish, which assembles them
// (see executeMorsels). It reports the number of result rows and
// the stats, and spans and counts the execution.
func (pp *PreparedPlan) execute(ctx context.Context, workers int, enc RowEncoder, finish func(slots []outSlot)) (int, ExecStats, error) {
	var tr *obs.Tracer
	var reg *obs.Registry
	if pp.built != nil {
		tr, reg = pp.built.obsTracer, pp.built.obsReg
	}
	if err := ctx.Err(); err != nil {
		reg.Counter("engine.exec.cancellations").Inc()
		return 0, ExecStats{}, err
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
	defer sp.End() // also when a morsel panicked
	rows, st, err := pp.executeMorsels(ctx, sp, reg, workers, enc, finish)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		if ctx.Err() != nil {
			reg.Counter("engine.exec.cancellations").Inc()
		}
		return 0, ExecStats{}, err
	}
	sp.SetAttr(obs.Int("rows_out", int64(rows)),
		obs.Int("rows_scanned", st.RowsScanned),
		obs.Int("rows_sought", st.RowsSought))
	reg.Counter("engine.exec.executions").Inc()
	reg.Counter("engine.exec.rows_out").Add(int64(rows))
	reg.Counter("engine.exec.rows_scanned").Add(st.RowsScanned)
	reg.Counter("engine.exec.rows_sought").Add(st.RowsSought)
	return rows, st, nil
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
	seekOp  sqlast.CmpOp
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
	// refs are the driver columns the branch reads (scope.ref), kernels
	// included; need is the column set a srcScan driver fetches
	// (ScanSource's ChunkColumns): ascending, the union of the refs of
	// every branch of the plan scanning this table (see Prepare).
	refs []int
	need []int
}

// pipeKind discriminates pipeline operators.
type pipeKind int

const (
	pipeFilter pipeKind = iota
	pipeHashJoin
	pipeINLJoin
)

// pipeOp is one compiled pipeline operator. What it reads from column
// vectors — a filter's kernel, a join's outer-key reader — is compiled
// into readers, per source.
type pipeOp struct {
	kind pipeKind

	// Filter: the predicate and the one table it reads.
	pred *sqlast.Pred
	tab  int

	// Join fields: the outer key column, the operator's index among the
	// branch's joins (its output buffers in branchState), and the index
	// it probes — an INL join's own, a hash join's cached key index on
	// its build side.
	outer tabCol
	out   int
	bi    *builtIndex

	// Hash join: the per-execution scan accounting its inner source
	// incurs (the reference executor re-scans the build side every
	// execution; the batch executor charges the same counters but skips
	// the rebuild).
	scanCount int64 // RowsScanned per run
}

// outCol is one projected column: the column it reads and its output
// position.
type outCol struct {
	tabCol
	pos int
}

// preparedBranch is one compiled union branch.
type preparedBranch struct {
	src driverSrc
	// kernPreds are the driver-stage predicates: every one applied before
	// the first join, in WHERE order. They compile to columnar kernels
	// over the driver table's vectors (readers.kerns) that compact the
	// vector of driver row ids before anything downstream sees a row.
	kernPreds []*sqlast.Pred
	ops       []pipeOp
	nJoins    int
	// outs are the projected columns; nulls the output positions of NULL
	// items. A result row is len(outs)+len(nulls) values wide.
	outs  []outCol
	nulls []int
	// orderOut is the outs entry at the plan's ORDER BY position, -1
	// when there is none: its fill also writes the batch's key block
	// (see sink).
	orderOut int
	// srcs is the source of every table in scope, by idx: the driver
	// table (which each acquired scan fragment stands in for), then each
	// join's inner table. rd is compiled against srcs; what reads table 0
	// only when the driver is resident (see readersFor).
	srcs []*rel.Table
	rd   readers
	// scope is the branch scope, kept for readersFor, which only reads
	// it (scope.col).
	scope *scope
	// built backs readersFor (EXISTS index lookups go through its
	// single-flighted cache).
	built *Built
	// pool recycles per-execution operator state (row-id vectors) across
	// executions of this branch.
	pool sync.Pool
}

// readers are everything a branch reads from its tables' column
// vectors, compiled against one set of sources: the driver-stage
// kernels, per pipeline operator a filter (nil for a join) or a join's
// outer-key reader, and the sink's fills, one per outs entry.
type readers struct {
	kerns    []colKernel
	filters  []rowFilter
	joinKeys []colFill
	fills    []colFill
}

// branchState is the per-execution operator state, row-id vectors
// only: the driver vector the kernels compact (drv holds it as the
// driver-stage batch), a filter's scratch vector, and per join its
// output buffers.
type branchState struct {
	sel     []int32
	drv     [][]int32
	scratch []int32
	joins   []joinBuf
}

// joinBuf buffers one join's matches: for each, the outer row's
// position in the batch being probed and the inner row id. A full
// buffer gathers the outer rows' ids into out, after which inner is
// the last vector, and moves on as a batch. finger is the join's
// position in its index (see seekInt), kept across batches and
// executions: any position is a valid start.
type joinBuf struct {
	pos    []int32
	inner  []int32
	out    [][]int32
	finger int
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
	if a.Kind == optimizer.AccessSeek {
		bi := b.Index(a.Index)
		if bi == nil {
			return nil, fmt.Errorf("engine: index %s not built", a.Index.Name)
		}
		if err := t.Hydrate(); err != nil {
			return nil, err
		}
		pb.src = driverSrc{kind: srcSeek, table: t, bi: bi, seekOp: a.SeekPred.Op, seekVal: a.SeekPred.Value}
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
	pb.srcs = []*rel.Table{t}
	applied := make(map[int]bool)
	// Filters before the first join are driver-stage kernels; each later
	// one filters the batches of the join before it.
	if err := pb.appendFilters(br, sc, applied); err != nil {
		return nil, err
	}
	for _, j := range br.Joins {
		if err := pb.appendJoin(b, sc, j); err != nil {
			return nil, err
		}
		if err := pb.appendFilters(br, sc, applied); err != nil {
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
	for pos, it := range br.Sel.Items {
		if it.Col == nil {
			pb.nulls = append(pb.nulls, pos)
			continue
		}
		c, err := sc.ref(*it.Col)
		if err != nil {
			return nil, err
		}
		pb.outs = append(pb.outs, outCol{tabCol: c, pos: pos})
	}
	// Every reference is resolved: the driver's read set is final, and
	// everything reading the tables' vectors compiles against them — what
	// reads table 0 only when the driver is resident: a table a source
	// pages has no vectors until a scan acquires a fragment of it.
	pb.src.refs = driver.refs
	pb.rd = readers{
		kerns:    make([]colKernel, len(pb.kernPreds)),
		filters:  make([]rowFilter, len(pb.ops)),
		joinKeys: make([]colFill, len(pb.ops)),
		fills:    make([]colFill, len(pb.outs)),
	}
	resident := t.Resident()
	if err := pb.compileReaders(&pb.rd, pb.srcs, func(tab int) bool { return tab > 0 || resident }); err != nil {
		return nil, err
	}
	pb.initPool()
	return pb, nil
}

// appendFilters records every not-yet-applied predicate whose
// referenced tables are in scope, in WHERE order — the same application
// order as the reference executor's applyPreds passes. Before the first
// join a predicate is a driver-stage kernel; after it, a filter
// operator.
func (pb *preparedBranch) appendFilters(br *optimizer.Branch, sc *scope, applied map[int]bool) error {
	s := br.Sel
	for i := range s.Where {
		p := &s.Where[i]
		if applied[i] || p.Kind == sqlast.PredJoin || p == br.Driver.SeekPred {
			continue
		}
		if !predInScope(p, sc) {
			continue
		}
		var tc tabCol // every column p reads is on one table (planShape)
		for _, c := range predCols(p) {
			var err error
			if tc, err = sc.ref(c); err != nil {
				return err
			}
		}
		if pb.nJoins == 0 {
			pb.kernPreds = append(pb.kernPreds, p)
		} else {
			pb.ops = append(pb.ops, pipeOp{kind: pipeFilter, pred: p, tab: tc.tab})
		}
		applied[i] = true
	}
	return nil
}

// predCols lists the columns a filter predicate reads.
func predCols(p *sqlast.Pred) []sqlast.ColRef {
	if p.Kind == sqlast.PredCompare {
		return []sqlast.ColRef{p.Col}
	}
	return append(p.Cols[:len(p.Cols):len(p.Cols)], p.OuterCol)
}

// appendJoin compiles one join step, resolving the build side through
// the Built's structure caches.
func (pb *preparedBranch) appendJoin(b *Built, sc *scope, j optimizer.Join) error {
	outer, err := sc.ref(j.OuterCol)
	if err != nil {
		return err
	}
	if err := joinKeys(b, j.OuterCol, j.InnerCol); err != nil {
		return err
	}
	op := pipeOp{kind: pipeHashJoin, outer: outer, out: pb.nJoins}
	pb.nJoins++
	if j.Method == optimizer.JoinINL {
		if op.bi, err = inlIndex(b, j); err != nil {
			return err
		}
		op.kind = pipeINLJoin
		sc.add(j.Inner.Table, colNames(op.bi.table))
		pb.srcs = append(pb.srcs, op.bi.table)
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
	var inner *scopeTable
	var srcKey string
	var n int
	if len(a.Groups) > 0 {
		// A partition's build side is its base table's: both share one
		// cached key index, and only the per-run scan accounting differs.
		if t, inner, err = addPartition(b, sc, a); err != nil {
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
		inner = sc.add(a.Table, colNames(t))
		n, srcKey = t.RowCount(), "t:"+a.Table
		if b.ViewTable(a.Table) != nil {
			srcKey = "v:" + a.Table
		}
		op.scanCount = int64(n)
	}
	pb.srcs = append(pb.srcs, t)
	ji, ok := inner.cols[j.InnerCol.Column]
	if !ok {
		return fmt.Errorf("engine: join column %s missing from %s", j.InnerCol, j.Inner.Table)
	}
	if op.bi, err = b.keyIndex(srcKey, t, ji); err != nil {
		return err
	}
	pb.ops = append(pb.ops, op)
	return nil
}

// compileReaders compiles into rd what the branch reads from the column
// vectors of every table in scope that want accepts, by idx, against
// srcs, the source of each table.
func (pb *preparedBranch) compileReaders(rd *readers, srcs []*rel.Table, want func(tab int) bool) error {
	b, sc := pb.built, pb.scope
	for i, p := range pb.kernPreds {
		if want(0) {
			k, err := compileColKernel(b, p, srcs[0], sc)
			if err != nil {
				return err
			}
			rd.kerns[i] = k
		}
	}
	for i := range pb.ops {
		switch op := &pb.ops[i]; {
		case op.kind != pipeFilter:
			if want(op.outer.tab) {
				rd.joinKeys[i] = newColFill(srcs[op.outer.tab], op.outer.col, 0)
			}
		case want(op.tab):
			f, err := compileRowFilter(b, op.pred, op.tab, srcs, sc)
			if err != nil {
				return err
			}
			rd.filters[i] = f
		}
	}
	for i, o := range pb.outs {
		if want(o.tab) {
			rd.fills[i] = newColFill(srcs[o.tab], o.col, o.pos)
		}
	}
	return nil
}

// readersFor returns the readers for one acquired scan fragment. A
// resident table is its own fragment, so the readers compiled against
// it at Prepare serve as they are; any other fragment gets what reads
// table 0 compiled against its own vectors beside Prepare's readers of
// the other tables. The compile is cheap (scope positions resolve in a
// two-level map, EXISTS indexes come from the Built's single-flighted
// cache) and chunk-local: a string range predicate precomputes its match
// table against the chunk's own dictionary. Readers of table 0 take
// fragment-local row ids.
func (pb *preparedBranch) readersFor(frag *rel.Table) (*readers, error) {
	if frag == pb.srcs[0] {
		return &pb.rd, nil
	}
	srcs := slices.Clone(pb.srcs)
	srcs[0] = frag
	rd := &readers{
		kerns:    make([]colKernel, len(pb.kernPreds)),
		filters:  slices.Clone(pb.rd.filters),
		joinKeys: slices.Clone(pb.rd.joinKeys),
		fills:    slices.Clone(pb.rd.fills),
	}
	if err := pb.compileReaders(rd, srcs, func(tab int) bool { return tab == 0 }); err != nil {
		return nil, err
	}
	return rd, nil
}

// initPool wires the per-execution state pool: the driver vector and
// each join's buffers, every vector batchSize row ids long.
func (pb *preparedBranch) initPool() {
	vec := func() []int32 { return make([]int32, 0, batchSize) }
	pb.pool.New = func() any {
		st := &branchState{sel: vec(), drv: make([][]int32, 1), scratch: vec(), joins: make([]joinBuf, pb.nJoins)}
		for j := range st.joins {
			// Join j's output holds tables 0..j+1; the last is inner.
			jb := &st.joins[j]
			jb.pos, jb.inner, jb.out = vec(), vec(), make([][]int32, j+2)
			for t := 0; t <= j; t++ {
				jb.out[t] = vec()
			}
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
func (pb *preparedBranch) resolveDriver(st *ExecStats) (int, []int32) {
	if pb.src.kind == srcSeek {
		ids := pb.src.bi.seekRange(pb.src.seekOp, pb.src.seekVal)
		st.RowsSought += int64(len(ids))
		return len(ids), ids
	}
	return pb.src.chunks.RowCount(), nil
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
// emits the projected rows into out (arenas, or row blocks encoded by
// enc when it is not nil; row count, stats) in pipeline order. Output
// depends only on the driver rows' order — operators keep no state
// across rows, and batch boundaries never split a row's join expansion
// out of order — so reading adjacent ranges' slots back to back equals
// one big run, which is what makes results bit-identical however the
// driver is cut into morsels. ctx is polled
// once per driver batch; on cancellation the pipeline stops promptly,
// pooled state is still returned for reuse, and ctx's error is reported.
func (pb *preparedBranch) runRange(ctx context.Context, out *outSlot, enc RowEncoder, ids []int32, lo, hi int) error {
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
	out.width = len(pb.outs) + len(pb.nulls)
	r := &pipeRun{pb: pb, st: state, out: out, enc: enc}

	// feed compacts a vector of driver row ids with the driver-stage
	// kernels and pushes the survivors through the pipeline.
	feed := func(sel []int32) {
		for _, k := range r.rd.kerns {
			if sel = k(sel); len(sel) == 0 {
				return
			}
		}
		state.drv[0] = sel
		r.push(0, state.drv)
	}
	if pb.src.kind == srcSeek {
		// One span of driver positions, indexing the seek's id list.
		r.rd = &pb.rd
		for start := lo; start < hi; start += batchSize {
			if cancelled() {
				return ctx.Err()
			}
			// The kernels compact in place, so they get a copy.
			feed(append(state.sel[:0], ids[start:min(start+batchSize, hi)]...))
		}
		return nil
	}
	// scanChunk scans rows [s0, e0) of chunk k (chunk-local ids): acquire
	// the fragment with the columns the scan reads from the source, read
	// it through readers compiled for that fragment, and release it
	// before returning. Every batch reaches the sink — the only place a
	// row id becomes a value — before the release, so no row id outlives
	// its fragment: a paged fragment is resident only between the fetch
	// and release, peak scan memory follows the source's budget, and
	// nothing is cached on a fragment (a pager-cached chunk is shared and
	// budgeted by its columns' encoded bytes).
	scanChunk := func(k, s0, e0 int) error {
		frag, release, err := pb.src.chunks.ChunkColumns(k, pb.src.need)
		if err != nil {
			return err
		}
		defer release()
		if r.rd, err = pb.readersFor(frag); err != nil {
			return err
		}
		for start := s0; start < e0; start += batchSize {
			if cancelled() {
				return ctx.Err()
			}
			end := min(start+batchSize, e0)
			out.st.RowsScanned += int64((end - start) * pb.src.groups)
			sel := state.sel[:0]
			for row := start; row < end; row++ {
				sel = append(sel, int32(row))
			}
			feed(sel)
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

// pipeRun is one runRange call's pipeline: the branch, the readers of
// the source being read, the pooled state, the output slot, and the
// byte target's row encoder (nil on the value target).
type pipeRun struct {
	pb  *preparedBranch
	rd  *readers
	st  *branchState
	out *outSlot
	enc RowEncoder
}

// push runs a batch — one row-id vector per table in scope — through
// the operators from oi on and into the sink.
func (r *pipeRun) push(oi int, vecs [][]int32) {
	for ops := r.pb.ops; oi < len(ops); oi++ {
		op := &ops[oi]
		if op.kind != pipeFilter {
			r.join(oi, op, vecs)
			return
		}
		r.rd.filters[oi](vecs, r.st.scratch)
		if len(vecs[0]) == 0 {
			return
		}
	}
	r.sink(vecs)
}

// join probes the inner table's index once per row of vecs with the
// outer key, an INT read straight from its column vector, and buffers
// each match's outer position and inner row id; full buffers move on as
// batches (see flush). An INL join charges its matches to RowsSought; a
// hash join's build-side scan is charged up front (see precharge).
func (r *pipeRun) join(oi int, op *pipeOp, vecs [][]int32) {
	jb := &r.st.joins[op.out]
	jb.pos, jb.inner = jb.pos[:0], jb.inner[:0]
	key := &r.rd.joinKeys[oi]
	for i, row := range vecs[op.outer.tab] {
		if key.null(row) {
			continue
		}
		rids := op.bi.seekInt(key.ints[row], &jb.finger)
		if op.kind == pipeINLJoin {
			r.out.st.RowsSought += int64(len(rids))
		}
		for _, rid := range rids {
			if jb.add(i, rid) {
				r.flush(oi, jb, vecs)
			}
		}
	}
	if len(jb.pos) > 0 {
		r.flush(oi, jb, vecs)
	}
}

// add buffers one match, outer row i and inner row m, and reports
// whether the buffer is full.
func (jb *joinBuf) add(i int, m int32) bool {
	jb.pos = append(jb.pos, int32(i))
	jb.inner = append(jb.inner, m)
	return len(jb.pos) == batchSize
}

// flush gathers the outer row ids of join oi's buffered matches from
// the batch being probed, one vector per outer table, and pushes them
// on with the inner row ids.
func (r *pipeRun) flush(oi int, jb *joinBuf, in [][]int32) {
	for t, ids := range in {
		v := jb.out[t][:len(jb.pos)]
		for k, p := range jb.pos {
			v[k] = ids[p]
		}
		jb.out[t] = v
	}
	jb.out[len(in)] = jb.inner
	r.push(oi+1, jb.out)
	jb.pos, jb.inner = jb.pos[:0], jb.inner[:0]
}

// sink projects a batch into one exactly-sized arena: one fill per
// projected column, straight from its column vector, and NULL items as
// constants. On the value target the arena is fresh and kept; the rows
// themselves are cut later, once (see assemble). On the byte target it
// is a pooled scratch batch: each row is encoded into a pooled row
// block, recording where it ends, and the scratch is cleared before it
// goes back, so it holds no pointer between batches and the fills find
// it zeroed.
// When the plan has an ORDER BY, the batch's keys — a non-nullable INT
// column (see orderKey) — are also copied into a pooled block beside
// the arena or row block, so assemble merges on int64s and never reads
// a cell back.
func (r *pipeRun) sink(vecs [][]int32) {
	out := r.out
	n, w := len(vecs[0]), out.width
	out.rows += n
	if n == 0 || w == 0 && r.enc == nil {
		return
	}
	var arena []rel.Value
	var scratch *[]rel.Value
	if r.enc == nil {
		arena = make([]rel.Value, n*w)
	} else {
		scratch = scratchCells.Get().(*[]rel.Value)
		if cap(*scratch) < n*w {
			*scratch = make([]rel.Value, n*w)
		}
		arena = (*scratch)[:n*w]
	}
	for i, o := range r.pb.outs {
		r.rd.fills[i].fill(arena, w, vecs[o.tab])
	}
	for _, p := range r.pb.nulls {
		for k := p; k < len(arena); k += w {
			arena[k].Null, arena[k].Typ = true, rel.TString // rel.NullOf(rel.TString) over a zero cell
		}
	}
	if ko := r.pb.orderOut; ko >= 0 {
		kb, ints := takeKeyBlock(), r.rd.fills[ko].ints
		for i, id := range vecs[r.pb.outs[ko].tab] {
			kb[i] = ints[id]
		}
		out.keys = append(out.keys, kb)
	}
	if r.enc == nil {
		out.arenas = append(out.arenas, arena)
		return
	}
	rb := takeRowBlock()
	buf := rb.buf[:0]
	for i := 0; i < n; i++ {
		buf = r.enc(buf, arena[i*w:i*w+w:i*w+w])
		rb.ends[i] = int32(len(buf))
	}
	rb.n, rb.buf = n, buf
	out.blocks = append(out.blocks, rb)
	clear(arena)
	scratchCells.Put(scratch)
}

// scratchCells recycles the byte target's scratch batches. A batch is
// taken for one sink call and returned zeroed, so only the batches being
// encoded hold one, whatever the number of prepared branches.
var scratchCells = sync.Pool{New: func() any { return new([]rel.Value) }}
