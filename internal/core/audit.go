package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/xmlgen"
)

// QueryAudit is one query's estimated-versus-measured entry.
type QueryAudit struct {
	// Tag is the source XPath.
	Tag string
	// Weight is the workload weight.
	Weight float64
	// EstCost is the advisor's estimated cost under the recommended
	// configuration (the number the search optimized).
	EstCost float64
	// Measured is the wall-clock time of one execution: the median of
	// enough repetitions to be stable. Spread is their interquartile
	// range.
	Measured, Spread time.Duration
	// Rows is the result size; RowsScanned/RowsSought are the
	// executor's access counters for one execution.
	Rows, RowsScanned, RowsSought int64
	// Plan is the EXPLAIN-style rendering of the executed plan.
	Plan string
}

// Audit is a cost-model accuracy audit: per-query estimated cost next
// to measured execution on real data under the recommended design —
// the Fig. 5 estimated-vs-actual comparison, plus the ratio the cost
// model is supposed to keep roughly constant across queries.
type Audit struct {
	// Queries are the per-query entries, in workload order.
	Queries []QueryAudit
	// EstTotal is the weighted estimated workload cost.
	EstTotal float64
	// MeasuredTotal is the weighted measured workload time.
	MeasuredTotal time.Duration
}

// A query of CostAudit is repeated until its executions total
// auditMinMeasure, at most auditMaxReps times.
const (
	auditMinMeasure = 5 * time.Millisecond
	auditMaxReps    = 256
)

// CostAudit loads the documents under the result's mapping, builds the
// recommended configuration on the budgeted store MeasureExecution runs
// on, and measures every workload query, pairing each measurement with
// the advisor's estimated cost. The estimated side comes from
// Result.PerQueryCost (what the search optimized); the measured side
// re-plans against the loaded data's actual statistics, exactly like
// MeasureExecution.
func (a *Advisor) CostAudit(res *Result, docs ...*xmlgen.Doc) (*Audit, error) {
	ctx := context.TODO() // CostAudit's signature carries no context
	audit := &Audit{}
	err := a.onBudgetedStore(ctx, res, docs, func(_ *rel.Database, _ *engine.Built, qs []measuredQuery) error {
		sp := a.Opts.Obs.StartSpan("advisor.cost-audit", obs.Int("queries", int64(len(qs))))
		defer sp.End()
		for qi, q := range qs {
			wq := a.W.Queries[qi]
			qa := QueryAudit{Tag: wq.XPath.String(), Weight: wq.Weight, Plan: q.plan.Explain()}
			if qi < len(res.PerQueryCost) {
				qa.EstCost = res.PerQueryCost[qi]
			}
			// First execution: result size and access counters.
			out, err := q.pp.ExecuteContextWorkers(ctx, a.Opts.Workers)
			if err != nil {
				return fmt.Errorf("core: executing %s: %w", wq.XPath, err)
			}
			qa.Rows = int64(len(out.Rows))
			qa.RowsScanned = out.Stats.RowsScanned
			qa.RowsSought = out.Stats.RowsSought
			qa.Measured, qa.Spread, err = timeRuns(auditMinMeasure, auditMaxReps, func() error {
				_, err := q.pp.ExecuteContextWorkers(ctx, a.Opts.Workers)
				return err
			})
			if err != nil {
				return err
			}
			audit.Queries = append(audit.Queries, qa)
			audit.EstTotal += qa.Weight * qa.EstCost
			audit.MeasuredTotal += time.Duration(qa.Weight * float64(qa.Measured))
		}
		sp.SetAttr(obs.Float("est_total", audit.EstTotal),
			obs.Int("measured_total_us", audit.MeasuredTotal.Microseconds()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return audit, nil
}

// WriteTable renders the audit as an aligned estimated-vs-measured
// table. The "x vs avg" column is each query's measured-per-estimated
// ratio normalized by the workload-wide ratio: a perfectly calibrated
// cost model (up to one global scale factor, which estimated cost
// units cannot fix) prints 1.00 everywhere; a query the model
// underestimates prints above one.
func (au *Audit) WriteTable(w io.Writer) error {
	var b strings.Builder
	b.WriteString("--- cost-model audit: estimated vs measured ---\n")
	fmt.Fprintf(&b, "%-44s %8s %10s %12s %10s %8s\n",
		"query", "weight", "est cost", "measured", "rows", "x vs avg")
	globalRatio := 0.0
	if au.EstTotal > 0 {
		globalRatio = float64(au.MeasuredTotal) / au.EstTotal
	}
	for _, q := range au.Queries {
		ratio := "-"
		if q.EstCost > 0 && globalRatio > 0 {
			ratio = fmt.Sprintf("%.2f", float64(q.Measured)/q.EstCost/globalRatio)
		}
		tag := q.Tag
		if len(tag) > 44 {
			tag = tag[:41] + "..."
		}
		fmt.Fprintf(&b, "%-44s %8.2f %10.2f %12s %10d %8s\n",
			tag, q.Weight, q.EstCost, q.Measured.Round(time.Microsecond), q.Rows, ratio)
	}
	fmt.Fprintf(&b, "weighted totals: estimated %.2f | measured %s\n",
		au.EstTotal, au.MeasuredTotal.Round(time.Microsecond))
	_, err := io.WriteString(w, b.String())
	return err
}
