// Command bench is the repository's benchmark: five workloads that each
// stress a different part of the stack, a handful of end-to-end numbers a
// user of the system would see, and a traced run that attributes the
// cost to layers. It measures the program from outside, through public
// functions and the counters the program already exposes. See README.md.
//
//	bash bench/run.sh                               all workloads, then bench/out/results.json
//	bash bench/run.sh --trace 1                     ... each followed by its traced run
//	bash bench/run.sh --workload serve_seek_http --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if dir := os.Getenv(appendChildEnv); dir != "" {
		os.Exit(appendChild(dir))
	}
	var (
		workload = flag.String("workload", "", "run one workload and print its result line; empty runs all of them")
		seed     = flag.Int64("seed", 1, "seed of the generated documents, predicate constants and request order")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
		quick    = flag.Bool("quick", false, "tiny corpus, for the smoke test; the numbers mean nothing")
		runs     = flag.Int("runs", 1, "with no -workload: runs per workload, each on the next seed")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments and exit non-zero if one is worse")
	)
	flag.Parse()
	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0}
	if err := mainErr(cfg, *workload, *runs, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg *config, workload string, runs int, compare bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	cfg.root = root
	cfg.tmp = filepath.Join(root, ".bench_build", "tmp")
	cfg.out = filepath.Join(root, "bench", "out")
	if workload == "" {
		return runAll(cfg, sp, runs)
	}
	r, err := runWorkload(cfg, sp, workload)
	if err != nil {
		return err
	}
	if err := r.emit(os.Stdout, sp, cfg.trace); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", workload, r.failed, r.attempted)
	}
	return nil
}

// runWorkload runs one workload in this process.
func runWorkload(cfg *config, sp *spec, name string) (*run, error) {
	if !sp.workload(name) {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := mapMemBuf(); err != nil {
		return nil, err
	}
	r := newRun(name)
	var err error
	switch {
	case name == "advise_greedy" && cfg.trace:
		err = traceAdvise(cfg, r)
	case name == "advise_greedy":
		err = runAdvise(cfg, r)
	case name == "ingest_append" && cfg.trace:
		err = traceIngest(cfg, r)
	case name == "ingest_append":
		err = runIngest(cfg, r)
	case cfg.trace:
		err = traceServing(cfg, r, serveSpecs[name])
	default:
		err = runServing(cfg, r, serveSpecs[name])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}
