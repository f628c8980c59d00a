// Command benchguard enforces performance contracts in CI. It reads
// `go test -bench` output on stdin, passes it through for the CI log,
// and checks the bounds of one table on ratios of the benchmarks in it.
// Every bound is supplied by the run itself — two benchmarks timed in
// the same job on the same machine, or a metric a benchmark computes
// against its own contract — so no baseline file is read, and there are
// no flags.
//
// A bound applies as soon as any benchmark it reads appears on stdin,
// and every benchmark it reads must then be present: a renamed or
// filtered-out benchmark fails the run instead of silently skipping its
// bound. A run in which no bound applies fails as well.
//
// With -count=N each benchmark reports N times. benchguard keeps the
// fastest ns/op — the robust estimator of "how fast can this code go",
// which shrugs off the scheduling noise of shared runners — and the
// largest value of each custom metric: the worst sample of a limit such
// as peak_over_bound, the fastest of a throughput such as qps.
//
// What changes between commits is not guarded here: scripts/benchpair.sh
// and the bench-pair CI job compare parent and change on one runner with
// bench/'s workloads.
//
// The three CI guard pipelines:
//
//	go test -run '^$' -bench 'BenchmarkExecute(Prepared|PreparedTraced|PreparedWorkers4)$' \
//	    -benchtime=2s -count=3 | go run ./scripts/benchguard
//	go test -run '^$' -bench 'BenchmarkAppend|BenchmarkChunkScanQuery' \
//	    -benchtime=1s -count=3 ./internal/storage/ | go run ./scripts/benchguard
//	go test -run '^$' -bench 'BenchmarkService' \
//	    -benchtime=1s -count=3 ./internal/service/loadgen/ | go run ./scripts/benchguard
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// The benchmarks the bounds read.
const (
	prepared     = "BenchmarkExecutePrepared"
	traced       = "BenchmarkExecutePreparedTraced"
	workers4     = "BenchmarkExecutePreparedWorkers4"
	appendSingle = "BenchmarkAppendSingle"
	appendBatch  = "BenchmarkAppendBatch100"
	chunkScan    = "BenchmarkChunkScanQuery"
	qpsW1        = "BenchmarkServiceQPSW1"
	qpsW4        = "BenchmarkServiceQPSW4"
	direct       = "BenchmarkServiceDirect"
)

// bound is one contract: eval computes a ratio and its limit from the
// run, and the ratio must stay at or below the limit — at or above it
// when floor is set.
type bound struct {
	name  string
	reads []string // the benchmarks eval reads, every one of them
	eval  func(r *run) (ratio, limit float64)
	floor bool
	why   string // what a failure means
}

var bounds = []bound{
	{
		// Enabled tracing (span tree + live registry counters) against the
		// nil-tracer default on the same prepared plans.
		name:  "tracing overhead Traced/Prepared",
		reads: []string{prepared, traced},
		eval:  func(r *run) (float64, float64) { return r.ns(traced) / r.ns(prepared), 1.25 },
		why:   "enabled tracing is no longer cheap next to the disabled path",
	},
	{
		// A gross-pathology guard (an accidental quadratic merge or a
		// busy-wait would blow it), not a speedup contract: on a
		// multi-core runner the ratio drops below 1, but on one hardware
		// thread four workers time-slice one core and measure pure
		// scheduling contention (~1.26x observed).
		name:  "workers overhead Workers4/Prepared",
		reads: []string{prepared, workers4},
		eval:  func(r *run) (float64, float64) { return r.ns(workers4) / r.ns(prepared), 1.50 },
		why:   "four workers cost far more than one on the same plans",
	},
	{
		// 100 rows under one fsync must beat 100 separate fsyncs per row
		// by a wide margin.
		name:  "group commit (Batch100/100)/Single",
		reads: []string{appendSingle, appendBatch},
		eval:  func(r *run) (float64, float64) { return r.ns(appendBatch) / 100 / r.ns(appendSingle), 0.80 },
		why:   "group commit is not amortizing the fsync",
	},
	{
		// The benchmark reports the pager's resident high-water mark over
		// its contract bound (budget + the chunks the scan may hold).
		name:  "chunk-scan peak_over_bound",
		reads: []string{chunkScan},
		eval:  func(r *run) (float64, float64) { return r.metric(chunkScan, "peak_over_bound"), 1.00 },
		why:   "the budgeted scan's pager is leaking resident bytes",
	},
	{
		// With more hardware threads than closed-loop sessions, four-worker
		// queries must sustain a real speedup over workers=1 on the same
		// load. With no idle thread (the sessions' own queries already
		// occupy every core), the ratio measures pure dispatch cost and
		// only a floor a deadlocked pool or a serialized morsel queue
		// would sink below applies.
		name:  "qps W4/W1 (1.15 if cpus > sessions)",
		reads: []string{qpsW1, qpsW4},
		eval: func(r *run) (float64, float64) {
			limit := 0.60
			if r.metric(qpsW1, "cpus") > r.metric(qpsW1, "sessions") {
				limit = 1.15
			}
			return r.metric(qpsW4, "qps") / r.metric(qpsW1, "qps"), limit
		},
		floor: true,
		why:   "the shared worker pool is not paying for itself",
	},
	{
		// Everything the service adds per request (in-process dispatch,
		// admission, plan-cache lookup) over the bare engine on the same
		// warmed plans; concurrent W1 sessions push it below 1 on a
		// multi-core runner, so this guards pathology, not a constant.
		name:  "service overhead W1/Direct",
		reads: []string{qpsW1, direct},
		eval:  func(r *run) (float64, float64) { return r.ns(qpsW1) / r.ns(direct), 1.50 },
		why:   "service dispatch costs far more than the bare engine",
	},
}

// run holds one value per benchmark and unit: the fastest ns/op, the
// largest custom metric.
type run struct {
	vals    map[string]map[string]float64
	missing []string // benchmark units a bound read that the run lacks
}

var benchLine = regexp.MustCompile(`^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+\d+(?:\.\d+)? ns/op`)

// metricPair matches the "<value> <unit>" measurements following the
// iteration count: ns/op and custom b.ReportMetric units alike (e.g.
// "0.86 peak_over_bound").
var metricPair = regexp.MustCompile(`\s(\d+(?:\.\d+)?(?:e[+-]?\d+)?) ([A-Za-z_][\w/]*)`)

func parse(in io.Reader, out io.Writer) (*run, error) {
	r := &run{vals: map[string]map[string]float64{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		vals := r.vals[m[1]]
		if vals == nil {
			vals = map[string]float64{}
			r.vals[m[1]] = vals
		}
		for _, p := range metricPair.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(p[1], 64)
			if err != nil {
				continue
			}
			old, seen := vals[p[2]]
			if !seen || (p[2] == "ns/op" && v < old) || (p[2] != "ns/op" && v > old) {
				vals[p[2]] = v
			}
		}
	}
	return r, sc.Err()
}

func (r *run) metric(bench, unit string) float64 {
	v, ok := r.vals[bench][unit]
	if !ok || v <= 0 {
		r.missing = append(r.missing, bench+" "+unit)
		return math.NaN()
	}
	return v
}

func (r *run) ns(bench string) float64 { return r.metric(bench, "ns/op") }

// check reads bench output from in, writes it and one line per
// applicable bound to out, and returns an error when a bound fails, a
// bound lacks an input, or no bound applies.
func check(in io.Reader, out io.Writer) error {
	r, err := parse(in, out)
	if err != nil {
		return fmt.Errorf("reading bench output: %w", err)
	}
	applied, failed := 0, 0
	for _, b := range bounds {
		present := 0
		for _, name := range b.reads {
			if r.vals[name] != nil {
				present++
			}
		}
		if present == 0 {
			continue
		}
		applied++
		r.missing = nil // eval reads every benchmark in b.reads
		ratio, limit := b.eval(r)
		if len(r.missing) > 0 {
			fmt.Fprintf(out, "benchguard: FAIL: %s: missing %s in bench output\n", b.name, strings.Join(r.missing, ", "))
			failed++
			continue
		}
		rel := "<="
		if b.floor {
			rel = ">="
		}
		fmt.Fprintf(out, "benchguard: %s %.3f (bound %s %.2f)\n", b.name, ratio, rel, limit)
		if (b.floor && ratio < limit) || (!b.floor && ratio > limit) {
			fmt.Fprintf(out, "benchguard: FAIL: %s: %s\n", b.name, b.why)
			failed++
		}
	}
	switch {
	case applied == 0:
		return fmt.Errorf("no bound applies: stdin holds none of the benchmarks they read")
	case failed > 0:
		return fmt.Errorf("%d of %d bounds failed", failed, applied)
	}
	fmt.Fprintln(out, "benchguard: OK")
	return nil
}

func main() {
	if err := check(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
