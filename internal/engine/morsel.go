package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rel"
)

// morselRows is the number of driver rows per morsel: four pipeline
// batches, enough to amortize dispatch without starving small worker
// pools. A package variable (not a const) so boundary tests can shrink
// it and exercise partial/straddling morsels on small fixtures.
var morselRows = 4 * rel.BatchSize

// executeMorsels is the intra-query parallel execution path
// (Workers > 1). Every branch's driver — table scan, index range scan,
// or partition-group zip scan — is split into fixed-size morsels of
// driver rows, and all morsels from all branches are dispatched to one
// worker pool shared by this Execute call. Downstream operators
// (filters, hash-join probes, index-nested-loop joins) run inside the
// morsel that feeds them, so one wide scan parallelizes end to end;
// hash-join build sides stay single-flighted on the Built's cache.
//
// Determinism: each morsel writes its arenas and stats into a fixed
// (branch, morsel) slot; the slots lie branch by branch in plan order
// and morsel by morsel in driver order, which is the order assemble
// reads them in. runRange output
// depends only on which driver rows a morsel covers — never on timing
// — and ExecStats are commutative sums, so results are bit-identical
// to serial execution at any worker count.
//
// Each branch also gets one precharge task (hash-join build-side cost
// charging, once per branch — see precharge) that runs before any of
// its morsels are claimable, mirroring the serial path's accounting.
func (pp *PreparedPlan) executeMorsels(ctx context.Context, sp *obs.Span, reg *obs.Registry, workers int) (*Result, error) {
	type branchRun struct {
		st     ExecStats // precharge + driver-resolution stats
		ids    []int     // seek drivers: matching row ids
		n      int       // driver row count
		lo, hi int       // the branch's morsels are tasks and slots [lo, hi)
		span   *obs.Span
	}
	runs := make([]*branchRun, len(pp.branches))
	type task struct {
		branch int
		lo, hi int
	}
	var tasks []task // task i fills slots[i]
	// Resolve drivers and build the task list up front: driver
	// resolution (index range seek + seek-cost charge) is cheap and
	// single-threaded here so morsel boundaries are fixed before any
	// worker starts. Branch spans are created serially in plan order;
	// morsel spans are added concurrently by workers (Span.Child is
	// concurrency-safe).
	for bi, pb := range pp.branches {
		r := &branchRun{}
		r.st.Branches++
		pb.precharge(&r.st)
		r.n, r.ids = pb.resolveDriver(&r.st)
		ranges := pb.morselRanges(r.n)
		r.span = sp.Child("executor.branch",
			obs.Int("branch", int64(bi)),
			obs.Int("operators", int64(len(pb.ops))),
			obs.Int("morsels", int64(len(ranges))))
		runs[bi] = r
		r.lo = len(tasks)
		for _, rg := range ranges {
			tasks = append(tasks, task{branch: bi, lo: rg[0], hi: rg[1]})
		}
		r.hi = len(tasks)
	}
	slots := make([]outSlot, len(tasks))

	var next atomic.Int64
	var stop atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) || stop.Load() {
					return
				}
				t := tasks[i]
				r := runs[t.branch]
				ms := r.span.Child("executor.morsel",
					obs.Int("morsel", int64(i-r.lo)),
					obs.Int("rows_in", int64(t.hi-t.lo)))
				slot := &slots[i]
				if err := pp.branches[t.branch].runRange(ctx, slot, r.ids, t.lo, t.hi); err != nil {
					ms.SetAttr(obs.String("error", err.Error()))
					ms.End()
					fail(err)
					return
				}
				ms.SetAttr(obs.Int("rows", int64(slot.rows)))
				ms.End()
			}
		}()
	}
	wg.Wait()
	reg.Counter("engine.exec.morsels").Add(int64(len(tasks)))

	res := &Result{Cols: pp.cols}
	for _, r := range runs {
		bst := r.st
		brows := 0
		for i := r.lo; i < r.hi; i++ {
			bst.add(slots[i].st)
			brows += slots[i].rows
		}
		res.Stats.add(bst)
		r.span.SetAttr(obs.Int("rows", int64(brows)),
			obs.Int("rows_scanned", bst.RowsScanned),
			obs.Int("rows_sought", bst.RowsSought))
		r.span.End()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Rows = assemble(slots, pp.orderPos)
	return res, nil
}
