package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runRecord is one run of one workload in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// resultsFile is what a full run writes to bench/out/results.json, and
// what -compare reads. The benchmark measures; it claims nothing.
type resultsFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Quick      bool        `json:"quick"`
	Started    string      `json:"started"`
	Runs       []runRecord `json:"runs"`
	Claim      *string     `json:"claim"`
}

// runAll runs every workload of BENCHMARK.json, each run in a process of
// its own so that one workload's heap, caches and open files cannot
// reach the next. With runs > 1 every workload is run on seeds seed,
// seed+1, ... so that the file carries a median and a spread.
func runAll(cfg *config, sp *spec, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultsFile{
		Commit:     commit(cfg.root),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    cfg.seconds,
		Quick:      cfg.quick,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	failed := 0
	for _, w := range sp.Workloads {
		for i := 0; i < runs; i++ {
			for _, trace := range []bool{false, true} {
				if trace && !cfg.trace {
					continue
				}
				rec, err := runChild(exe, cfg, w.Name, cfg.seed+int64(i), trace)
				if err != nil {
					return err
				}
				out.Runs = append(out.Runs, *rec)
				if !rec.Correct {
					failed++
				}
			}
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d runs reported failed operations", failed)
	}
	return nil
}

// runChild runs one workload in a child process, passes its metric
// lines through, and parses the result line.
func runChild(exe string, cfg *config, workload string, seed int64, trace bool) (*runRecord, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(trace))}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	rec := &runRecord{Workload: workload, Seed: seed, Trace: trace}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if !strings.HasPrefix(last, "{") {
		fmt.Println(last)
		return nil, fmt.Errorf("%s printed no result line: %v", workload, runErr)
	}
	if err := json.Unmarshal([]byte(last), &rec.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	fmt.Printf("# %s seed %d trace %d: correct=%v attempted=%d failed=%d\n", workload, seed, b2i(trace), rec.Correct, rec.Attempted, rec.Failed)
	return rec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit names the commit of the checkout, when it is a git repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints one row per workload and end-to-end metric with
// the medians of both files, their ratio (b over a), the bound, and a
// verdict: "worse" when b's median is worse than a's by more than the
// bound, "unresolved" when either side's spread between runs is wider
// than the bound (so that no verdict can be trusted), else "ok". A
// failed run on either side is "worse".
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (commit %s, %d runs)   b = %s (commit %s, %d runs)   ratio = b/a\n", pathA, a.Commit, len(a.Runs), pathB, b.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %7s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "ratio", "bound", "spread a", "spread b", "verdict")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, okA := a.values(wl.Name, m.Name)
			vb, okB := b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %7s %8s %8s  %s\n", wl.Name, m.Name, "-", "-", "-", "-", "-", "-", "missing")
				worse++
				continue
			}
			ma, mb := median(va), median(vb)
			r := ratio(mb, ma)
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			regress := r - 1 // how much worse b is, as a share of a
			if m.Better == "higher" {
				regress = 1 - r
			}
			verdict := "ok"
			switch {
			case !okA || !okB:
				verdict = "worse (failed operations)"
			case spread(va) > bound || spread(vb) > bound:
				verdict = "unresolved"
			case regress > bound:
				verdict = "worse"
			}
			if strings.HasPrefix(verdict, "worse") {
				worse++
			}
			fmt.Fprintf(w, "%-20s %-16s %12.5g %12.5g %8.3f %7.2f %8.3f %8.3f  %s\n", wl.Name, m.Name, ma, mb, r, bound, spread(va), spread(vb), verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse", worse)
	}
	return nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns a metric's value in every untraced run of a workload,
// and whether all of those runs were correct.
func (f *resultsFile) values(workload, metric string) (vals []float64, correct bool) {
	correct = true
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if !r.Correct {
			correct = false
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals, correct
}
