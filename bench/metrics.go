package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json. It is the only list of workload and metric
// names: the program looks units up here, refuses to emit a name that
// is not listed, and fills the final result line from it.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// repoRoot walks up from the working directory to the directory that
// holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) metric(name string) *metricSpec {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

func (s *spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run collects what one workload run measured. Metrics that do not
// apply to the workload are simply never set.
type run struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string // first few, for the operator
	metrics   map[string]float64
	notes     []string
}

func newRun(workload string) *run {
	return &run{workload: workload, metrics: make(map[string]float64)}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed operations and keeps the first few reasons.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// emit prints every metric the run set as "workload metric value unit"
// and then the result line. In the result line an end-to-end metric the
// run did not set is an error; a per-layer metric that does not apply to
// the workload reads 0.
func (r *run) emit(w io.Writer, s *spec, trace bool) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := s.metric(n)
		if m == nil {
			return fmt.Errorf("metric %q is not listed in BENCHMARK.json", n)
		}
		if v := r.metrics[n]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", n, v)
		}
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, n, formatValue(r.metrics[n]), m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok && !trace {
			return fmt.Errorf("end-to-end metric %q was not measured on %s", m.Name, r.workload)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// quantile returns the q-quantile of sorted values with linear
// interpolation between ranks (the "inclusive" method).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// spread is the distance between the first and third quartile as a
// share of the median, computed as Python's statistics.quantiles(n=4)
// does (the "exclusive" method), which is what the acceptance check uses.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k)*float64(n+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
