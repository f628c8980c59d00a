// Command benchguard enforces performance contracts in CI. It reads
// `go test -bench` output on stdin and checks bounds on ratios of the
// benchmarks in it.
//
// -mode executor (the default) reads no baseline; both its bounds come
// from the run itself:
//
//  1. enabled-tracing overhead: ExecutePreparedTraced / ExecutePrepared.
//  2. workers=4 overhead: ExecutePreparedWorkers4 / ExecutePrepared,
//     when the run includes it.
//
// How the batch executor compares with the reference executor is not
// guarded here: a single-caller ratio recorded on one machine does not
// transfer to a runner with a different number of hardware threads.
// Every traced bench/ run reports it as engine.reference_ratio, and the
// bench-pair job compares parent and change on the same runner.
//
// -mode chunkscan reads no baseline either: the budgeted scan's pager
// high-water mark must stay within its residency bound
// (peak_over_bound <= 1, reported by BenchmarkChunkScanQuery itself).
// What a chunk-path scan costs over an assembled one is no longer a
// checked-in ratio — the recorded one mixed the scan-cost simulation
// into both sides; bench/ reports both serving workloads
// (serve_scan_paged beside serve_scan_resident) on one model.
//
// -mode qps guards the PR 10 service path against BENCH_PR10.json:
// the W4/W1 sustained-QPS speedup is asserted from the run itself
// (the multi-core bound only when the run's cpus metric exceeds its
// sessions metric — with every thread already busy on a session's own
// query, a query's extra workers have nothing idle to run on), the
// service-dispatch cost of W1 over the bare engine is bounded from the
// same run, and the W1/Direct ratio is pinned against the baseline when
// the run and the baseline fall in the same cpu category.
//
// -mode paging compares with a baseline, each ratio normalized by a
// benchmark of the same run so machine speed cancels: it pins the
// chunked and budgeted reopen paths (StoreReopen and StoreReopenBudgeted
// over SegmentDecode) plus the group-commit amortization against
// BENCH_PR8.json.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkExecute...' -benchtime 2s | \
//	    go run ./scripts/benchguard
//	go test -run '^$' -bench 'SegmentDecode|StoreReopen|Append' ./internal/storage/ | \
//	    go run ./scripts/benchguard -mode paging -baseline BENCH_PR8.json
//	go test -run '^$' -bench 'ChunkScanQuery' ./internal/storage/ | \
//	    go run ./scripts/benchguard -mode chunkscan
//	go test -run '^$' -bench 'BenchmarkService' ./internal/service/loadgen/ | \
//	    go run ./scripts/benchguard -mode qps -baseline BENCH_PR10.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// maxEnabledOverhead bounds traced-vs-untraced from one run;
// maxWorkersOverhead bounds four workers against one on the same
// scheduler from the same run. The workers bound is a gross-pathology
// guard (an accidental quadratic merge or a busy-wait would blow it),
// not a speedup contract: on a multi-core runner the ratio drops below
// 1, but on a single-hardware-thread runner four workers time-slice one
// core and measure pure scheduling contention (~1.26x observed), so the
// bound must sit above that noise floor.
const (
	maxEnabledOverhead = 1.25
	maxWorkersOverhead = 1.50
	// -mode paging bounds. maxPagingDrift holds the chunked and budgeted
	// reopens (file reads, directory and chunk CRCs, manifest checks,
	// redo replay on top of the codec) against the PR 8 baseline,
	// normalized by the segment codec — a reopen-latency regression that
	// is not just "the codec got slower everywhere" fails.
	// maxBatchPerRowFraction is the group-commit contract from a single
	// run: 100 rows under one fsync must beat 100 separate fsyncs per
	// row by a wide margin.
	maxPagingDrift         = 1.50
	maxBatchPerRowFraction = 0.80
	// -mode chunkscan bound. maxPeakOverBound is the PR 9 memory
	// contract from a single run: BenchmarkChunkScanQuery reports the
	// pager's resident high-water mark over (budget + one chunk per
	// concurrent holder), and a budgeted scan whose peak exceeds that
	// bound is leaking residency — no baseline can excuse it.
	maxPeakOverBound = 1.00
	// -mode qps bounds. The speedup contract is decided from the run's
	// own cpus and sessions metrics: with more hardware threads than
	// concurrent sessions, four-worker queries must sustain at least
	// minQPSSpeedupMulticore times the QPS of workers=1 on the identical
	// load — the whole point of sharing one build behind a worker pool.
	// With no thread to spare (the sessions alone keep every thread on a
	// query), four workers can only time-slice the cores the sessions
	// already use, so the same ratio measures pure dispatch/scheduling
	// cost and only minQPSSpeedupSingleCore
	// (a gross-pathology floor: a deadlocked pool or serialized morsel
	// queue would sink below it) applies. maxServiceOverhead bounds
	// W1/Direct from one run — everything the service adds per request
	// (HTTP-free in-process dispatch, admission, plan-cache lookup)
	// over the bare engine executing the same warmed plans; on a
	// multi-core runner the concurrent W1 sessions push the ratio
	// below 1, so the bound guards pathology, not a constant.
	// maxQPSDrift pins W1/Direct against BENCH_PR10.json, normalized
	// by the bare engine from each run to cancel machine speed; the
	// comparison only holds within a cpu category (concurrency helps
	// W1 but not Direct on multi-core), so it is skipped when the run
	// and the baseline disagree about cpus >= 2.
	minQPSSpeedupMulticore  = 1.15
	minQPSSpeedupSingleCore = 0.60
	maxServiceOverhead      = 1.50
	maxQPSDrift             = 1.50
)

type baseline struct {
	Results []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"results"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// metricPair matches the "<value> <unit>" measurements following the
// iteration count, covering both ns/op and custom b.ReportMetric units
// (e.g. "0.86 peak_over_bound").
var metricPair = regexp.MustCompile(`\s(\d+(?:\.\d+)?(?:e[+-]?\d+)?) ([A-Za-z_][\w/]*)`)

// loadBaselineMetrics returns every numeric field of each baseline
// result (ns_per_op plus custom metrics like qps and cpus), keyed by
// benchmark name — the qps mode needs more than ns_per_op.
func loadBaselineMetrics(path string) map[string]map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}
	out := map[string]map[string]float64{}
	for _, r := range base.Results {
		name, _ := r["name"].(string)
		if name == "" {
			continue
		}
		m := map[string]float64{}
		for k, v := range r {
			if f, ok := v.(float64); ok {
				m[k] = f
			}
		}
		out[name] = m
	}
	return out
}

func loadBaseline(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}
	ns := map[string]float64{}
	for _, r := range base.Results {
		ns[r.Name] = r.NsPerOp
	}
	return ns
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline benchmark JSON (paging and qps modes)")
	mode := flag.String("mode", "executor", `guard mode: "executor" (tracing and workers=4 overhead, from the run itself), "paging" (store reopen latency, memory-budgeted paging + group commit vs the PR 8 baseline), "chunkscan" (budgeted query peak residency, from the run itself), or "qps" (service sustained-QPS speedup + dispatch overhead vs the PR 10 baseline)`)
	flag.Parse()

	measured := map[string]float64{}
	metrics := map[string]map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the CI log
		if m := benchLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err == nil {
				// With -count=N each benchmark reports several times;
				// keep the fastest run — the standard robust estimator
				// for "how fast can this code go", which shrugs off the
				// scheduling noise of shared CI runners.
				if old, ok := measured[m[1]]; !ok || v < old {
					measured[m[1]] = v
				}
			}
			// Custom b.ReportMetric units on the same line are limits,
			// not speeds: keep the worst (largest) observation.
			for _, p := range metricPair.FindAllStringSubmatch(line, -1) {
				if p[2] == "ns/op" {
					continue
				}
				v, err := strconv.ParseFloat(p[1], 64)
				if err != nil {
					continue
				}
				if metrics[m[1]] == nil {
					metrics[m[1]] = map[string]float64{}
				}
				if v > metrics[m[1]][p[2]] {
					metrics[m[1]][p[2]] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal("reading bench output: %v", err)
	}

	need := func(src map[string]float64, name, where string) float64 {
		v, ok := src[name]
		if !ok || v <= 0 {
			fatal("missing %s in %s", name, where)
		}
		return v
	}

	if *mode == "paging" {
		// The reopen bounds are normalized by the segment codec from the
		// same run/baseline, which cancels machine speed:
		// BenchmarkStoreReopen covers Open + every chunk load (checksum,
		// decode, validate, merge), BenchmarkSegmentDecode is the codec.
		baseNs := loadBaseline(*baselinePath)
		decBase := need(baseNs, "BenchmarkSegmentDecode", *baselinePath)
		decNow := need(measured, "BenchmarkSegmentDecode", "bench output")
		failed := false

		// Chunked + budgeted reopen vs the PR 8 baseline.
		for _, name := range []string{"BenchmarkStoreReopen", "BenchmarkStoreReopenBudgeted"} {
			base := need(baseNs, name, *baselinePath)
			now := need(measured, name, "bench output")
			drift := (now / decNow) / (base / decBase)
			fmt.Printf("benchguard: %s drift %.3f (bound %.2f)\n", name, drift, maxPagingDrift)
			if drift > maxPagingDrift {
				fmt.Printf("benchguard: FAIL: %s regressed %.1f%% vs %s (normalized by the segment codec)\n",
					name, (drift-1)*100, *baselinePath)
				failed = true
			}
		}

		// Group commit: per-row cost of a 100-row batch vs one row per
		// fsync, from this run alone (no baseline needed — the contract
		// is the amortization itself).
		single := need(measured, "BenchmarkAppendSingle", "bench output")
		batch := need(measured, "BenchmarkAppendBatch100", "bench output")
		perRow := batch / 100
		frac := perRow / single
		fmt.Printf("benchguard: group-commit per-row fraction %.3f (bound %.2f)\n", frac, maxBatchPerRowFraction)
		if frac > maxBatchPerRowFraction {
			fmt.Printf("benchguard: FAIL: batched appends cost %.0f%% of single appends per row — group commit is not amortizing the fsync\n", frac*100)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("benchguard: OK")
		return
	}
	if *mode == "chunkscan" {
		failed := false
		// Memory contract from this run alone: the budgeted scan's pager
		// high-water mark must stay within budget + one chunk per
		// concurrent holder (the benchmark computes the bound and
		// reports the ratio).
		peakM, ok := metrics["BenchmarkChunkScanQuery"]
		if !ok {
			fatal("missing BenchmarkChunkScanQuery metrics in bench output")
		}
		peak, ok := peakM["peak_over_bound"]
		if !ok || peak <= 0 {
			fatal("missing peak_over_bound metric in bench output")
		}
		fmt.Printf("benchguard: chunk-scan peak_over_bound %.3f (bound %.2f)\n", peak, maxPeakOverBound)
		if peak > maxPeakOverBound {
			fmt.Printf("benchguard: FAIL: budgeted chunk scan peaked at %.0f%% of the residency bound — the pager is leaking resident bytes\n", peak*100)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("benchguard: OK")
		return
	}
	if *mode == "qps" {
		metric := func(bench, unit string) float64 {
			m, ok := metrics[bench]
			if !ok {
				fatal("missing %s metrics in bench output", bench)
			}
			v, ok := m[unit]
			if !ok || v <= 0 {
				fatal("missing %s metric for %s in bench output", unit, bench)
			}
			return v
		}
		failed := false

		// Multi-worker speedup (or the dispatch floor, when the sessions
		// leave no thread idle) from this run alone, decided by the run's
		// own cpus and sessions metrics.
		qps1 := metric("BenchmarkServiceQPSW1", "qps")
		qps4 := metric("BenchmarkServiceQPSW4", "qps")
		cpus := metric("BenchmarkServiceQPSW1", "cpus")
		sessions := metric("BenchmarkServiceQPSW1", "sessions")
		speedup := qps4 / qps1
		bound, kind := minQPSSpeedupSingleCore, "no-idle-thread dispatch floor"
		if cpus > sessions {
			bound, kind = minQPSSpeedupMulticore, "multi-core speedup"
		}
		fmt.Printf("benchguard: qps W4/W1 speedup %.3f on %.0f cpus under %.0f sessions (%s bound %.2f)\n", speedup, cpus, sessions, kind, bound)
		if speedup < bound {
			fmt.Printf("benchguard: FAIL: workers=4 sustained %.1f qps vs %.1f at workers=1 — the shared worker pool is not paying for itself\n", qps4, qps1)
			failed = true
		}

		// Service-dispatch cost over the bare engine from the same run.
		w1Now := need(measured, "BenchmarkServiceQPSW1", "bench output")
		dirNow := need(measured, "BenchmarkServiceDirect", "bench output")
		overhead := w1Now / dirNow
		fmt.Printf("benchguard: service overhead W1/Direct %.3f (bound %.2f)\n", overhead, maxServiceOverhead)
		if overhead > maxServiceOverhead {
			fmt.Printf("benchguard: FAIL: service dispatch costs %.1f%% over the bare engine on the same warmed plans\n", (overhead-1)*100)
			failed = true
		}

		// W1/Direct drift vs the baseline, normalized by the bare
		// engine from each run. Only comparable within a cpu category:
		// the four concurrent W1 sessions speed up with cores while the
		// serial Direct loop does not.
		base := loadBaselineMetrics(*baselinePath)
		needf := func(bench, field string) float64 {
			m, ok := base[bench]
			if !ok {
				fatal("missing %s in %s", bench, *baselinePath)
			}
			v, ok := m[field]
			if !ok || v <= 0 {
				fatal("missing %s for %s in %s", field, bench, *baselinePath)
			}
			return v
		}
		cpusBase := needf("BenchmarkServiceQPSW1", "cpus")
		if (cpus >= 2) == (cpusBase >= 2) {
			drift := overhead / (needf("BenchmarkServiceQPSW1", "ns_per_op") / needf("BenchmarkServiceDirect", "ns_per_op"))
			fmt.Printf("benchguard: qps drift %.3f (bound %.2f)\n", drift, maxQPSDrift)
			if drift > maxQPSDrift {
				fmt.Printf("benchguard: FAIL: service path regressed %.1f%% vs %s (normalized by the bare engine)\n",
					(drift-1)*100, *baselinePath)
				failed = true
			}
		} else {
			fmt.Printf("benchguard: qps drift skipped: run has %.0f cpus, baseline %s recorded %.0f — W1/Direct is only comparable within a cpu category\n",
				cpus, *baselinePath, cpusBase)
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("benchguard: OK")
		return
	}
	if *mode != "executor" {
		fatal("unknown -mode %q", *mode)
	}

	prepNow := need(measured, "BenchmarkExecutePrepared", "bench output")
	tracedNow := need(measured, "BenchmarkExecutePreparedTraced", "bench output")

	overhead := tracedNow / prepNow
	fmt.Printf("benchguard: enabled-tracing overhead %.3f (bound %.2f)\n", overhead, maxEnabledOverhead)
	failed := false
	if overhead > maxEnabledOverhead {
		fmt.Printf("benchguard: FAIL: enabled tracing costs %.1f%% over the disabled path\n", (overhead-1)*100)
		failed = true
	}
	// The workers bound is optional: it only applies when the bench run
	// included BenchmarkExecutePreparedWorkers4 (partial runs skip it).
	if w4, ok := measured["BenchmarkExecutePreparedWorkers4"]; ok && w4 > 0 {
		wover := w4 / prepNow
		fmt.Printf("benchguard: workers=4 overhead %.3f (bound %.2f)\n", wover, maxWorkersOverhead)
		if wover > maxWorkersOverhead {
			fmt.Printf("benchguard: FAIL: 4 workers cost %.1f%% over one\n", (wover-1)*100)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", a...)
	os.Exit(1)
}
