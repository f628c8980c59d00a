package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMain(m *testing.M) {
	// The kill-and-reopen check re-executes this binary as its child.
	if dir := os.Getenv(appendChildEnv); dir != "" {
		os.Exit(appendChild(dir))
	}
	os.Exit(m.Run())
}

// smokeRun runs one workload in quick mode and returns what it printed:
// the metric lines (name → unit) and the parsed result line.
func smokeRun(t *testing.T, sp *spec, cfg *config, workload string) (map[string]string, result) {
	t.Helper()
	r, err := runWorkload(cfg, sp, workload)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, cfg.trace, err)
	}
	var buf bytes.Buffer
	if err := r.emit(&buf, sp, cfg.trace); err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, cfg.trace, err)
	}
	units := make(map[string]string)
	var res result
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "{"):
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: result line: %v", workload, err)
			}
		default:
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != workload {
				t.Fatalf("%s: malformed metric line %q", workload, line)
			}
			if _, dup := units[f[1]]; dup {
				t.Errorf("%s: metric %s printed twice", workload, f[1])
			}
			units[f[1]] = f[3]
		}
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("%s (trace=%v): %d of %d operations failed:\n%s", workload, cfg.trace, res.Failed, res.Attempted, buf.String())
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted = %d", workload, res.Attempted)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", workload, name, m.Value)
		}
	}
	return units, res
}

// TestSmoke runs every workload of BENCHMARK.json end to end and traced,
// at a tiny scale, and checks the output against the file and the
// contract it was written to.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}

	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for _, m := range sp.PerLayer {
		name("per-layer metric", m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}

	tmp := t.TempDir()
	measured := make(map[string]bool) // per-layer metrics some workload actually measured
	for _, w := range sp.Workloads {
		cfg := &config{seed: 1, seconds: 1, quick: true, root: root, tmp: filepath.Join(tmp, "tmp"), out: filepath.Join(tmp, "out")}
		units, res := smokeRun(t, sp, cfg, w.Name)
		for _, m := range sp.EndToEnd {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: end-to-end metric %s printed with unit %q, want %q", w.Name, m.Name, units[m.Name], m.Unit)
			}
			if v, ok := res.Metrics[m.Name]; !ok || v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is missing or zero in the result line", w.Name, m.Name)
			}
		}
		if len(res.Metrics) != len(sp.EndToEnd) {
			t.Errorf("%s: result line has %d metrics, want the %d end-to-end ones", w.Name, len(res.Metrics), len(sp.EndToEnd))
		}

		cfg.trace = true
		units, res = smokeRun(t, sp, cfg, w.Name)
		if len(res.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s: traced result line has %d metrics, want the %d per-layer ones", w.Name, len(res.Metrics), len(sp.PerLayer))
		}
		for n, unit := range units {
			m := sp.metric(n)
			if m == nil || m.Unit != unit {
				t.Errorf("%s: traced run printed %s with unit %q", w.Name, n, unit)
			}
			measured[n] = true
		}
		if w.Name == "serve_scan_paged" {
			if v := res.Metrics["storage.peak_over_bound"].Value; v <= 0 || v > 1 {
				t.Errorf("storage.peak_over_bound = %v, want (0, 1]", v)
			}
			if v := res.Metrics["storage.pager_faults_per_query"].Value; v <= 0 {
				t.Errorf("serve_scan_paged faulted %v chunks a query, want > 0", v)
			}
		}
		if w.Name == "serve_scan_resident" {
			if v := res.Metrics["storage.pager_faults_per_query"].Value; v != 0 {
				t.Errorf("serve_scan_resident faulted %v chunks a query after warm-up, want 0", v)
			}
		}
		if v := res.Metrics["core.optimizer_calls"].Value; (v > 0) != (w.Name == "advise_greedy") {
			t.Errorf("%s: core.optimizer_calls = %v", w.Name, v)
		}
		checkTraceFile(t, filepath.Join(cfg.out, "trace-"+w.Name+".json"))
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
}

type spanNode struct {
	ID       int64          `json:"id"`
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs"`
	Children []*spanNode    `json:"children"`
}

// checkTraceFile checks what Tracer.Validate cannot see from inside:
// that the written forest has one request identifier per tree, children
// inside their parents, and no negative self time.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf struct {
		RegistryDelta map[string]float64 `json:"registry_delta"`
		Trace         struct {
			Spans []*spanNode `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tf.Trace.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	var walk func(n *spanNode, request any)
	walk = func(n *spanNode, request any) {
		if n.Attrs["request"] != request {
			t.Errorf("%s: span %d (%s) carries request %v inside a tree of request %v", path, n.ID, n.Name, n.Attrs["request"], request)
		}
		if self, ok := n.Attrs["self_us"].(float64); !ok || self < 0 {
			t.Errorf("%s: span %d (%s) has self time %v", path, n.ID, n.Name, n.Attrs["self_us"])
		}
		for _, c := range n.Children {
			// The tracer rounds to microseconds, so allow one at each edge.
			if c.StartUS < n.StartUS-1 || c.StartUS+c.DurUS > n.StartUS+n.DurUS+1 {
				t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, c.ID, c.Name, n.ID, n.Name)
			}
			walk(c, request)
		}
	}
	for _, root := range tf.Trace.Spans {
		if _, ok := root.Attrs["request"]; !ok {
			t.Errorf("%s: root span %d (%s) has no request identifier", path, root.ID, root.Name)
		}
		walk(root, root.Attrs["request"])
	}
}
