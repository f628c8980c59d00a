// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark
// runs the corresponding experiment at a laptop scale and reports the
// paper's series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the shape of the published results: who wins, by roughly
// what factor, and where the crossovers fall. Absolute times differ
// from the paper's SQL Server testbed by design.
package xmlshred_test

import (
	"context"
	"runtime"
	"testing"

	xmlshred "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchScaleMovie/DBLP keep benchmark iterations tractable.
const (
	benchScaleMovie = experiments.Scale(0.2)  // 2,000 movies
	benchScaleDBLP  = experiments.Scale(0.1)  // 2,000 publications
	benchScaleIntro = experiments.Scale(0.25) // 5,000 publications
)

var (
	benchMovie *experiments.Dataset
	benchDBLP  *experiments.Dataset
)

func movieDataset() *experiments.Dataset {
	if benchMovie == nil {
		benchMovie = experiments.LoadMovie(benchScaleMovie)
	}
	return benchMovie
}

func dblpDataset() *experiments.Dataset {
	if benchDBLP == nil {
		benchDBLP = experiments.LoadDBLP(benchScaleDBLP)
	}
	return benchDBLP
}

func benchWorkload(b *testing.B, d *experiments.Dataset, params workload.Params) *workload.Workload {
	b.Helper()
	w, err := xmlshred.GenerateWorkload(d.Tree, d.Col, params)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkIntroExample reproduces the Section 1.1 motivating example:
// Mapping 1 vs Mapping 2 with and without physical design. Reported
// metrics: m1/m2 time ratio tuned (paper ~20x) and untuned (paper
// ~0.8x).
func BenchmarkIntroExample(b *testing.B) {
	d := experiments.LoadDBLP(benchScaleIntro)
	var tuned, untuned float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIntroExample(d)
		if err != nil {
			b.Fatal(err)
		}
		tuned, untuned = res.TunedRatio(), res.UntunedRatio()
	}
	b.ReportMetric(tuned, "m1/m2-tuned")
	b.ReportMetric(untuned, "m1/m2-untuned")
}

// BenchmarkTable1 regenerates the dataset characteristics table.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = []experiments.Table1Row{
			experiments.RunTable1(dblpDataset()),
			experiments.RunTable1(movieDataset()),
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Transformations), r.Dataset+"-transforms")
		b.ReportMetric(float64(r.NonSubsumed), r.Dataset+"-nonsubsumed")
	}
}

// comparisonBench runs the Fig. 4/5/6 comparison on one dataset and
// reports normalized execution time (Fig. 4), normalized search time
// (Fig. 5), and transformations searched (Fig. 6) per algorithm.
func comparisonBench(b *testing.B, d *experiments.Dataset, queries int, algos experiments.Algorithms, opts core.Options) {
	w := benchWorkload(b, d, workload.StandardParams(queries, 7)[0])
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunComparison(d, w, algos, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NormExec, r.Algorithm+"-normExec")
		b.ReportMetric(r.NormSearch, r.Algorithm+"-normSearch")
		b.ReportMetric(float64(r.Transformations), r.Algorithm+"-transforms")
	}
}

// benchOpts is the shared search configuration of the comparison
// benchmarks.
var benchOpts = core.Options{MaxRounds: 3}

// BenchmarkFig4DBLP / BenchmarkFig4Movie: workload execution time of
// the mappings returned by Greedy, Naive-Greedy, and Two-Step,
// normalized to hybrid inlining.
func BenchmarkFig4DBLP(b *testing.B) {
	comparisonBench(b, dblpDataset(), 10, experiments.Algorithms{Greedy: true, Naive: true, Two: true}, benchOpts)
}

func BenchmarkFig4Movie(b *testing.B) {
	comparisonBench(b, movieDataset(), 10, experiments.Algorithms{Greedy: true, Naive: true, Two: true}, benchOpts)
}

// BenchmarkFig5DBLP / Movie: advisor running time normalized to
// Two-Step (the same runs; the normSearch metrics are Fig. 5's
// series).
func BenchmarkFig5DBLP(b *testing.B) {
	comparisonBench(b, dblpDataset(), 10, experiments.Algorithms{Greedy: true, Naive: true, Two: true}, benchOpts)
}

func BenchmarkFig5Movie(b *testing.B) {
	comparisonBench(b, movieDataset(), 10, experiments.Algorithms{Greedy: true, Naive: true, Two: true}, benchOpts)
}

// BenchmarkFig5DBLPParallel is BenchmarkFig5DBLP's Greedy search with
// the evaluation service running at full parallelism. The recommended
// design and every search counter are identical to the sequential run;
// only the wall-clock search time (and the searchMs metric here) drops.
// The cacheHits metric shows the memoized reuse that, together with the
// worker pool, produces the speed-up.
func BenchmarkFig5DBLPParallel(b *testing.B) {
	d := dblpDataset()
	w := benchWorkload(b, d, workload.StandardParams(10, 7)[0])
	opts := benchOpts
	opts.Parallelism = runtime.GOMAXPROCS(0)
	var res *xmlshred.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = xmlshred.NewAdvisor(d.Tree, d.Col, w, opts).Greedy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Metrics.Duration.Microseconds())/1000, "searchMs")
	b.ReportMetric(float64(res.Metrics.EvalCacheHits), "cacheHits")
	b.ReportMetric(float64(res.Metrics.EvalCacheMisses), "cacheMisses")
}

// BenchmarkFig6DBLP / Movie: transformations searched (the -transforms
// metrics are Fig. 6's series).
func BenchmarkFig6DBLP(b *testing.B) {
	comparisonBench(b, dblpDataset(), 20, experiments.Algorithms{Greedy: true, Two: true}, benchOpts)
}

func BenchmarkFig6Movie(b *testing.B) {
	comparisonBench(b, movieDataset(), 20, experiments.Algorithms{Greedy: true, Two: true}, benchOpts)
}

// BenchmarkFig7 reports the candidate-selection speed-ups on DBLP.
func BenchmarkFig7(b *testing.B) {
	d := dblpDataset()
	w := benchWorkload(b, d, workload.StandardParams(10, 11)[0])
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig7(d, w, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, r.Variant+"-speedup")
	}
}

// BenchmarkFig8 reports merging-strategy quality and running time.
func BenchmarkFig8(b *testing.B) {
	d := movieDataset()
	w := benchWorkload(b, d, workload.StandardParams(10, 13)[0])
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig8(d, w, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NormEst, r.Variant+"-normEst")
		b.ReportMetric(r.Speedup, r.Variant+"-relTime")
	}
}

// BenchmarkFig9 reports cost-derivation quality and speed-up.
func BenchmarkFig9(b *testing.B) {
	d := dblpDataset()
	w := benchWorkload(b, d, workload.StandardParams(10, 17)[0])
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig9(d, w, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NormEst, r.Variant+"-normEst")
		if r.Speedup > 0 {
			b.ReportMetric(r.Speedup, r.Variant+"-speedup")
		}
	}
}

// BenchmarkUpdateWorkload is the ablation bench for the update-stream
// extension: reports the number of structures recommended for a
// read-only vs an update-heavy workload (the latter must be leaner).
func BenchmarkUpdateWorkload(b *testing.B) {
	d := dblpDataset()
	queries := []string{
		`//inproceedings[booktitle = "SIGMOD CONFERENCE"]/(title | year | author)`,
		`//inproceedings[year = 2000]/(title | pages | ee)`,
	}
	var ro, up int
	for i := 0; i < b.N; i++ {
		w := xmlshred.MustWorkload("ro", queries...)
		adv := xmlshred.NewAdvisor(d.Tree, d.Col, w, xmlshred.Options{})
		res, err := adv.HybridBaseline()
		if err != nil {
			b.Fatal(err)
		}
		ro = len(res.Config.Indexes) + len(res.Config.Views)

		uw := xmlshred.MustWorkload("up", queries...)
		uw.Updates = []workload.Update{{Element: "inproceedings", Rate: 100000}}
		uadv := xmlshred.NewAdvisor(d.Tree, d.Col, uw, xmlshred.Options{})
		ures, err := uadv.HybridBaseline()
		if err != nil {
			b.Fatal(err)
		}
		up = len(ures.Config.Indexes) + len(ures.Config.Views)
	}
	b.ReportMetric(float64(ro), "structures-readonly")
	b.ReportMetric(float64(up), "structures-updateheavy")
}

// executorBenchSetup builds the Fig. 5 DBLP workload's plans under the
// hybrid mapping: the same queries the comparison benchmarks execute,
// planned once, so the executor benchmarks below time pure execution.
func executorBenchSetup(b *testing.B) (*engine.Built, []*optimizer.Plan) {
	b.Helper()
	d := dblpDataset()
	w := benchWorkload(b, d, workload.StandardParams(10, 7)[0])
	m, err := xmlshred.CompileMapping(d.Tree)
	if err != nil {
		b.Fatal(err)
	}
	db, err := xmlshred.ShredDocuments(m, d.Docs...)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &physical.Config{}
	built, err := engine.Build(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := optimizer.New(stats.FromDatabase(db))
	var plans []*optimizer.Plan
	for _, wq := range w.Queries {
		sql, err := xmlshred.TranslateQuery(m, wq.XPath)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := opt.PlanQuery(sql, cfg)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	return built, plans
}

// BenchmarkExecuteReference times the row-at-a-time reference executor
// on the Fig. 5 DBLP workload — the old execution path, kept as the
// differential-testing oracle. Compare ns/op and allocs/op against
// BenchmarkExecuteBatch/BenchmarkExecutePrepared from the same run.
func BenchmarkExecuteReference(b *testing.B) {
	built, plans := executorBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			if _, err := engine.ExecuteReference(built, plan); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecuteBatch times the pipelined batch executor through the
// public Execute entry point (prepared-plan lookup included).
func BenchmarkExecuteBatch(b *testing.B) {
	built, plans := executorBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			if _, err := engine.Execute(built, plan); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecutePrepared times repeated executions of pre-compiled
// PreparedPlans — the steady state of MeasureExecution's repetition
// loop, where even the fingerprint lookup is amortized away.
func BenchmarkExecutePrepared(b *testing.B) { benchExecutePreparedWorkers(b, 1) }

// BenchmarkExecutePreparedTraced is BenchmarkExecutePrepared with the
// observability layer attached: every execution records an
// executor.execute span with per-branch children and live registry
// counters. The delta against BenchmarkExecutePrepared (nil tracer — the
// default) is the cost of *enabled* tracing, which scripts/benchguard
// bounds in CI from the one run.
func BenchmarkExecutePreparedTraced(b *testing.B) {
	built, plans := executorBenchSetup(b)
	built.AttachObs(obs.New(), obs.NewRegistry())
	pps := make([]*engine.PreparedPlan, len(plans))
	for i, plan := range plans {
		pp, err := built.Prepared(plan)
		if err != nil {
			b.Fatal(err)
		}
		pps[i] = pp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pp := range pps {
			if _, err := pp.ExecuteContextWorkers(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchExecutePreparedWorkers runs the pre-compiled plans of the Fig. 5
// DBLP workload on the given number of goroutines: 1 is the caller's
// alone (BenchmarkExecutePrepared). Results are bit-identical at any
// count; only wall-clock changes. Speedup
// over BenchmarkExecutePrepared requires actual hardware parallelism —
// on a single-CPU host the interesting bound is the overhead, which
// scripts/benchguard caps.
func benchExecutePreparedWorkers(b *testing.B, workers int) {
	built, plans := executorBenchSetup(b)
	pps := make([]*engine.PreparedPlan, len(plans))
	for i, plan := range plans {
		pp, err := built.Prepared(plan)
		if err != nil {
			b.Fatal(err)
		}
		pps[i] = pp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pp := range pps {
			if _, err := pp.ExecuteContextWorkers(context.Background(), workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExecutePreparedWorkers2(b *testing.B) { benchExecutePreparedWorkers(b, 2) }
func BenchmarkExecutePreparedWorkers4(b *testing.B) { benchExecutePreparedWorkers(b, 4) }

// BenchmarkShred measures raw shredding throughput (rows/op metric).
func BenchmarkShred(b *testing.B) {
	d := movieDataset()
	m, err := xmlshred.CompileMapping(d.Tree)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		db, err := xmlshred.ShredDocuments(m, d.Docs...)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, t := range db.Tables() {
			rows += t.RowCount()
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkExecuteQuery measures end-to-end single-query latency under
// a tuned configuration.
func BenchmarkExecuteQuery(b *testing.B) {
	d := movieDataset()
	m, err := xmlshred.CompileMapping(d.Tree)
	if err != nil {
		b.Fatal(err)
	}
	db, err := xmlshred.ShredDocuments(m, d.Docs...)
	if err != nil {
		b.Fatal(err)
	}
	w := xmlshred.MustWorkload("bench", `//movie[year >= 2000]/(title | box_office)`)
	cfg, err := xmlshred.TunePhysicalDesign(m, d.Col, w, 0)
	if err != nil {
		b.Fatal(err)
	}
	q, err := xmlshred.TranslateQuery(m, w.Queries[0].XPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := xmlshred.ExecuteQuery(db, cfg, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
