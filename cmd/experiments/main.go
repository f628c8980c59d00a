// Command experiments reproduces the paper's evaluation end to end:
// Table 1, the Section 1.1 motivating example, and Figures 4-9. It
// prints the same series the paper reports (normalized execution time,
// normalized search time, transformations searched, speed-ups) and can
// restrict the run to individual experiments.
//
//	experiments -scale 0.5              # everything, half-size data
//	experiments -only fig4,fig5 -quick  # just the comparison figures
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

// experimentNames are the experiments -only selects, in run order.
var experimentNames = []string{"table1", "intro", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

// config is the parsed command line.
type config struct {
	scale          float64
	quick          bool
	sel            func(string) bool
	naive, naive20 bool
	seed           int64
	parallel       int
	debugAddr      string
}

// parseArgs parses the command line. It refuses an -only name that is
// not an experiment and a scale that is not positive, before any data
// is loaded.
func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scale     = fs.Float64("scale", 0.25, "dataset scale factor (1.0 = 20k publications / 10k movies)")
		quick     = fs.Bool("quick", false, "smaller workloads and round caps for a fast pass")
		only      = fs.String("only", "", "comma-separated subset: "+strings.Join(experimentNames, ","))
		naive     = fs.Bool("naive", true, "include Naive-Greedy on the 10-query workloads (slow)")
		naive20   = fs.Bool("naive20", false, "also run Naive-Greedy on 20-query workloads (very slow)")
		seedBase  = fs.Int64("seed", 7, "workload generation seed")
		parallel  = fs.Int("parallel", 1, "concurrent candidate evaluations per search (all strategies; results are identical at any setting)")
		debugAddr = fs.String("debug-addr", "", "serve /debug/vars, /debug/metrics, and /debug/pprof on this address while experiments run")
	)
	if err := fs.Parse(args); err != nil {
		return nil, parseError{err}
	}
	if !(*scale > 0) {
		return nil, fmt.Errorf("-scale %v: the scale must be positive", *scale)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			name := strings.TrimSpace(s)
			if !slices.Contains(experimentNames, name) {
				return nil, fmt.Errorf("-only: unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", "))
			}
			want[name] = true
		}
	}
	return &config{
		scale:     *scale,
		quick:     *quick,
		sel:       func(name string) bool { return len(want) == 0 || want[name] },
		naive:     *naive,
		naive20:   *naive20,
		seed:      *seedBase,
		parallel:  *parallel,
		debugAddr: *debugAddr,
	}, nil
}

// parseError is an error the flag package has already printed, with
// the usage.
type parseError struct{ error }

func (e parseError) Unwrap() error { return e.error }

func main() {
	c, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		if !errors.As(err, new(parseError)) {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(2)
	}
	if err := run(c.scale, c.quick, c.sel, c.naive, c.naive20, c.seed, c.parallel, c.debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scale float64, quick bool, sel func(string) bool, naive, naive20 bool, seed int64, parallel int, debugAddr string) error {
	start := time.Now()

	opts := core.Options{Parallelism: parallel}
	if debugAddr != "" {
		reg := obs.NewRegistry()
		ds, err := obs.ServeDebug(debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", ds.Addr)
		opts.Registry = reg
	}

	fmt.Printf("loading datasets (scale %.2f)...\n", scale)
	dblp := experiments.LoadDBLP(experiments.Scale(scale))
	movie := experiments.LoadMovie(experiments.Scale(scale))

	if quick {
		opts.MaxRounds = 2
	}
	wl20, wl10 := 20, 10
	if quick {
		wl20, wl10 = 8, 4
	}

	if sel("table1") {
		experiments.PrintTable1(os.Stdout, []experiments.Table1Row{
			experiments.RunTable1(dblp), experiments.RunTable1(movie),
		})
	}
	if sel("intro") {
		res, err := experiments.RunIntroExample(dblp)
		if err != nil {
			return err
		}
		experiments.PrintIntro(os.Stdout, res)
	}
	if sel("fig4") || sel("fig5") || sel("fig6") {
		// DBLP: four 20-query workloads (Greedy, Two-Step; Naive only
		// when -naive20), plus four 10-query workloads incl. Naive —
		// mirroring the paper, which could not finish Naive on the
		// 20-query DBLP workloads.
		var rows []experiments.Row
		for _, p := range workload.StandardParams(wl20, seed) {
			w, err := dblp.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunComparison(dblp, w[0],
				experiments.Algorithms{Greedy: true, Two: true, Naive: naive20}, opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		for _, p := range workload.StandardParams(wl10, seed+100) {
			w, err := dblp.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunComparison(dblp, w[0],
				experiments.Algorithms{Greedy: true, Two: true, Naive: naive}, opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		experiments.SortRows(rows)
		experiments.PrintRows(os.Stdout, "Fig 4/5/6 (DBLP): quality, search time, transformations", rows)

		rows = rows[:0]
		for _, p := range workload.StandardParams(wl20, seed+200) {
			w, err := movie.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunComparison(movie, w[0],
				experiments.Algorithms{Greedy: true, Two: true, Naive: naive}, opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		experiments.SortRows(rows)
		experiments.PrintRows(os.Stdout, "Fig 4/5/6 (Movie): quality, search time, transformations", rows)
	}
	if sel("fig7") {
		var rows []experiments.AblationRow
		for _, p := range workload.StandardParams(wl20, seed+300) {
			w, err := dblp.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunFig7(dblp, w[0], opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		experiments.PrintAblation(os.Stdout, "Fig 7 (DBLP): candidate-selection speed-up", rows)
	}
	if sel("fig8") {
		var rows []experiments.AblationRow
		for _, p := range workload.StandardParams(wl20, seed+400) {
			w, err := dblp.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunFig8(dblp, w[0], opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		experiments.PrintAblation(os.Stdout, "Fig 8 (DBLP): merging strategies", rows)
	}
	if sel("fig9") {
		var rows []experiments.AblationRow
		for _, p := range workload.StandardParams(wl20, seed+500) {
			w, err := dblp.Workloads([]workload.Params{p})
			if err != nil {
				return err
			}
			r, err := experiments.RunFig9(dblp, w[0], opts)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		experiments.PrintAblation(os.Stdout, "Fig 9 (DBLP): cost derivation", rows)
	}
	fmt.Printf("\ntotal experiment time: %s\n", time.Since(start))
	return nil
}
