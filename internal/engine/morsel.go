package engine

import (
	"context"

	"repro/internal/obs"
	"repro/internal/par"
)

// morselRows is the number of driver rows per morsel: four pipeline
// batches, enough to amortize dispatch without starving small worker
// pools. A package variable (not a const) so boundary tests can shrink
// it and exercise partial/straddling morsels on small fixtures.
var morselRows = 4 * batchSize

// executeMorsels is the one scheduler every execution goes through.
// Every branch's driver — a table scan (a partition scan among them) or
// an index range scan — is split into fixed-size morsels of driver
// rows, and the morsels of all branches form one task list that exactly
// `workers` goroutines claim from through par.Do: the caller's own plus
// workers-1 spawned, so one worker is the same loop with nothing
// spawned.
// Downstream operators (filters, hash-join probes, index-nested-loop
// joins) run inside the morsel that feeds them, so one wide scan
// parallelizes end to end; hash-join build sides stay single-flighted
// on the Built's cache.
//
// Determinism: each morsel writes its arenas (or row blocks) and stats
// into a fixed (branch, morsel) slot; the slots lie branch by branch in
// plan order and morsel by morsel in driver order, which is the order
// assemble reads them in. runRange output depends only on which driver rows a
// morsel covers — never on timing or on which goroutine ran it — and
// ExecStats are commutative sums, so results are bit-identical at any
// worker count and under any claim order.
//
// The claim order is therefore free to serve the pager (see
// claimOrder): morsel-major across branches, at every worker count.
//
// Hash-join build-side cost is charged once per branch, never per
// morsel (see precharge), before any morsel is claimable. When every
// morsel succeeded the slots go to finish, which assembles them, and
// the result rows are counted; the slots' pooled blocks are released
// on every way out.
//
// Failure has the outcome of one worker too: once a morsel fails no
// further one is claimed, and the error returned is that of the failing
// morsel lowest in claim order. A morsel's panic is raised again on the
// caller's goroutine after every started morsel has returned, never
// left to end the process from a worker, and after the branch spans
// have ended and the slots' blocks have gone back to their pools.
func (pp *PreparedPlan) executeMorsels(ctx context.Context, sp *obs.Span, reg *obs.Registry, workers int, enc RowEncoder, finish func(slots []outSlot)) (int, ExecStats, error) {
	type branchRun struct {
		st     ExecStats // precharge + driver-resolution stats
		ids    []int32   // seek drivers: matching row ids
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
	counts := make([]int, len(pp.branches))
	for bi, pb := range pp.branches {
		r := &branchRun{}
		r.st.Branches++
		pb.precharge(&r.st)
		var n int
		n, r.ids = pb.resolveDriver(&r.st)
		ranges := pb.morselRanges(n)
		r.span = sp.Child("executor.branch",
			obs.Int("branch", int64(bi)),
			obs.Int("operators", int64(pb.operators())),
			obs.Int("morsels", int64(len(ranges))))
		runs[bi] = r
		r.lo = len(tasks)
		for _, rg := range ranges {
			tasks = append(tasks, task{branch: bi, lo: rg[0], hi: rg[1]})
		}
		r.hi = len(tasks)
		counts[bi] = len(ranges)
	}
	slots := make([]outSlot, len(tasks))
	defer releaseSlots(slots)
	defer func() {
		for _, r := range runs {
			r.span.End() // already ended unless a morsel panicked
		}
	}()
	order := claimOrder(counts)

	err := par.Do(len(order), workers, func(c int) error {
		i := order[c]
		t := tasks[i]
		r := runs[t.branch]
		ms := r.span.Child("executor.morsel",
			obs.Int("morsel", int64(i-r.lo)),
			obs.Int("rows_in", int64(t.hi-t.lo)))
		defer ms.End()
		slot := &slots[i]
		if err := pp.branches[t.branch].runRange(ctx, slot, enc, r.ids, t.lo, t.hi); err != nil {
			ms.SetAttr(obs.String("error", err.Error()))
			return err
		}
		ms.SetAttr(obs.Int("rows", int64(slot.rows)))
		return nil
	})
	reg.Counter("engine.exec.morsels").Add(int64(len(tasks)))

	var st ExecStats
	rows := 0
	for _, r := range runs {
		bst := r.st
		brows := 0
		for i := r.lo; i < r.hi; i++ {
			bst.add(slots[i].st)
			brows += slots[i].rows
		}
		st.add(bst)
		rows += brows
		r.span.SetAttr(obs.Int("rows", int64(brows)),
			obs.Int("rows_scanned", bst.RowsScanned),
			obs.Int("rows_sought", bst.RowsSought))
		r.span.End()
	}
	if err != nil {
		return 0, st, err
	}
	finish(slots)
	return rows, st, nil
}

// claimOrder returns the order in which tasks are claimed, given each
// branch's morsel count: morsel 0 of every branch, then morsel 1 of
// every branch, and so on, as indices into the branch-major task list.
// Branches of one query mostly scan the same table, so walking them
// together lets the second branch hit the chunk the first just faulted
// instead of faulting the whole table once per branch under a budget
// smaller than the table. The order takes no worker count: one worker
// shares chunks exactly as seven do.
func claimOrder(counts []int) []int {
	starts := make([]int, len(counts))
	total := 0
	for b, c := range counts {
		starts[b] = total
		total += c
	}
	order := make([]int, 0, total)
	for m := 0; len(order) < total; m++ {
		for b, c := range counts {
			if m < c {
				order = append(order, starts[b]+m)
			}
		}
	}
	return order
}
