package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/xmlgen"
)

// Execution is the measured outcome of running the workload under a
// recommended design on real data.
type Execution struct {
	// Elapsed is the wall-clock time of one pass over the workload: the
	// median of the timed passes. Spread is their interquartile range.
	Elapsed, Spread time.Duration
	// Rows is the total number of result rows produced.
	Rows int64
	// DataBytes is the loaded data size; StructBytes the materialized
	// structure size.
	DataBytes, StructBytes int64
}

// MeasureExecution loads the documents under the result's mapping,
// materializes the recommended configuration on a budgeted store (see
// onBudgetedStore), and executes every workload query, repeated in
// proportion to its weight (fractional weights are scaled and rounded
// half-up; see executionReps), returning real execution measurements —
// the quality metric of Section 5.1.4.
func (a *Advisor) MeasureExecution(res *Result, docs ...*xmlgen.Doc) (*Execution, error) {
	return a.MeasureExecutionContext(context.Background(), res, docs...)
}

// MeasureExecutionContext is MeasureExecution with cancellation: ctx
// aborts the measurement between (and, via the engine's per-batch
// polling, inside) query executions. Options.Workers is the number of
// goroutines every measured execution runs on; the default of 0 is the
// caller's goroutine alone.
func (a *Advisor) MeasureExecutionContext(ctx context.Context, res *Result, docs ...*xmlgen.Doc) (*Execution, error) {
	var ex *Execution
	err := a.onBudgetedStore(ctx, res, docs, func(db *rel.Database, built *engine.Built, qs []measuredQuery) error {
		weights := make([]float64, len(a.W.Queries))
		for i, wq := range a.W.Queries {
			weights[i] = wq.Weight
		}
		reps := executionReps(weights)
		var rows int64
		elapsed, spread, err := timeRuns(measureFloor, measureMaxPasses, func() error {
			rows = 0
			for i, q := range qs {
				for r := 0; r < reps[i]; r++ {
					out, err := q.pp.ExecuteContextWorkers(ctx, a.Opts.Workers)
					if err != nil {
						return fmt.Errorf("core: executing workload: %w", err)
					}
					rows += int64(len(out.Rows))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ex = &Execution{Elapsed: elapsed, Spread: spread, Rows: rows, DataBytes: db.Bytes(), StructBytes: built.StructBytes}
		return nil
	})
	return ex, err
}

// A workload pass of MeasureExecution is repeated until the passes
// total measureFloor, at most measureMaxPasses times.
const (
	measureFloor     = 30 * time.Millisecond
	measureMaxPasses = 50
)

// timeRuns times run and reports the median run with the
// interquartile range of the runs. It collects garbage first, so no
// earlier work's garbage is collected inside the timing. A run faster
// than floor is repeated until the repetitions total floor, at most
// maxRuns times, each timed on its own (the first, calibrating run is
// not counted); a slower one is the only sample, with no spread.
func timeRuns(floor time.Duration, maxRuns int, run func() error) (median, spread time.Duration, err error) {
	runtime.GC()
	start := time.Now()
	if err := run(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if elapsed >= floor || elapsed <= 0 {
		return elapsed, 0, nil
	}
	samples := make([]time.Duration, min(int(floor/elapsed)+1, maxRuns))
	for i := range samples {
		start := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		samples[i] = time.Since(start)
	}
	slices.Sort(samples)
	return quantile(samples, 0.5), quantile(samples, 0.75) - quantile(samples, 0.25), nil
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 == len(sorted) {
		return sorted[i]
	}
	return sorted[i] + time.Duration((pos-float64(i))*float64(sorted[i+1]-sorted[i]))
}

// maxExecReps caps per-query repetitions so scaled-up fractional
// weights cannot blow up measurement time.
const maxExecReps = 64

// executionReps converts workload weights to repetition counts that
// preserve weight ratios: weights are scaled so the smallest positive
// weight executes at least once (and the largest at most maxExecReps
// times), then rounded half-up, with a floor of one execution per
// query. Truncating instead (the old behavior) made a weight of 2.9
// execute twice and 0.5 once — the measured workload no longer matched
// the weighted cost the advisor optimized.
func executionReps(weights []float64) []int {
	minW, maxW := math.Inf(1), 0.0
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		minW = math.Min(minW, w)
		maxW = math.Max(maxW, w)
	}
	scale := 1.0
	if maxW > 0 {
		if minW < 1 {
			scale = 1 / minW
		}
		if maxW*scale > maxExecReps {
			scale = maxExecReps / maxW
		}
	}
	reps := make([]int, len(weights))
	for i, w := range weights {
		r := int(math.Floor(w*scale + 0.5))
		if r < 1 {
			r = 1
		}
		reps[i] = r
	}
	return reps
}

// measureBudgetDivisor sets the pager budget of the measured runs: a
// quarter of the saved data, the ratio the paged serving benchmark runs
// at, so a scan of a wider table faults more chunks.
const measureBudgetDivisor = 4

// onBudgetedStore is the substrate of the measured runs (MeasureExecution,
// CostAudit). It loads the documents under the result's mapping, saves
// the recommended design to a temporary directory, reopens it with a
// pager budget of a quarter of the data, prepares the workload on the
// store's PagedBuilt (prepareWorkload), and calls run with the shredded
// database, the PagedBuilt and the prepared queries. The store is closed
// and the directory removed on every return.
func (a *Advisor) onBudgetedStore(ctx context.Context, res *Result, docs []*xmlgen.Doc, run func(*rel.Database, *engine.Built, []measuredQuery) error) error {
	db, resident, err := a.BuildFor(res, docs...)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "xmlshred-measure-")
	if err != nil {
		return fmt.Errorf("core: creating measurement store: %w", err)
	}
	defer os.RemoveAll(dir)
	man, err := storage.Save(dir, resident, storage.Options{Registry: a.Opts.Registry})
	if err != nil {
		return fmt.Errorf("core: saving measurement store: %w", err)
	}
	var data int64
	for _, e := range man.Tables {
		data += e.Bytes
	}
	st, err := storage.Open(dir, storage.Options{Registry: a.Opts.Registry, MemBudgetBytes: data / measureBudgetDivisor})
	if err != nil {
		return fmt.Errorf("core: opening measurement store: %w", err)
	}
	defer st.Close()
	built, err := st.PagedBuilt()
	if err != nil {
		return fmt.Errorf("core: building configuration on the measurement store: %w", err)
	}
	built.AttachObs(a.Opts.Obs, a.Opts.Registry)
	qs, err := a.prepareWorkload(ctx, res, db, built)
	if err != nil {
		return err
	}
	return run(db, built, qs)
}

// measuredQuery is one workload query of a measured run.
type measuredQuery struct {
	plan *optimizer.Plan
	pp   *engine.PreparedPlan
}

// prepareWorkload is the measured runs' translate → plan → prepare
// step: every workload query is translated under the result's mapping,
// planned under its configuration against the loaded data's actual
// statistics, and prepared once on built, so every repetition reuses
// the compiled pipeline and the Built's cached probe structures.
func (a *Advisor) prepareWorkload(ctx context.Context, res *Result, db *rel.Database, built *engine.Built) ([]measuredQuery, error) {
	opt := optimizer.New(stats.FromDatabase(db))
	qs := make([]measuredQuery, len(a.W.Queries))
	for i, wq := range a.W.Queries {
		sql, err := translate.Translate(res.Mapping, wq.XPath)
		if err != nil {
			return nil, fmt.Errorf("core: translating %s: %w", wq.XPath, err)
		}
		plan, err := opt.PlanQuery(sql, res.Config)
		if err != nil {
			return nil, fmt.Errorf("core: planning %s: %w", wq.XPath, err)
		}
		pp, err := built.PreparedContext(ctx, plan)
		if err != nil {
			return nil, fmt.Errorf("core: preparing %s: %w", wq.XPath, err)
		}
		qs[i] = measuredQuery{plan: plan, pp: pp}
	}
	return qs, nil
}

// BuildFor loads the documents under the result's recommended mapping
// and materializes the recommended physical configuration, with the
// advisor's observability attached, all resident. It is the entry into
// durable persistence (storage.Save takes the returned Built) and what
// the measured runs save to their store.
func (a *Advisor) BuildFor(res *Result, docs ...*xmlgen.Doc) (*rel.Database, *engine.Built, error) {
	db, err := shredLoad(res, docs)
	if err != nil {
		return nil, nil, err
	}
	built, err := engine.Build(db, res.Config)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building configuration: %w", err)
	}
	built.AttachObs(a.Opts.Obs, a.Opts.Registry)
	return db, built, nil
}

func shredLoad(res *Result, docs []*xmlgen.Doc) (*rel.Database, error) {
	db, err := shred.Shred(res.Mapping, docs...)
	if err != nil {
		return nil, fmt.Errorf("core: loading data under recommended mapping: %w", err)
	}
	return db, nil
}
