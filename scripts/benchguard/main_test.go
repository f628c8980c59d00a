package main

import (
	"fmt"
	"strings"
	"testing"
)

// bl is one canned `go test -bench` line: GOMAXPROCS suffix, iteration
// count, ns/op, then any custom metrics ("0.9 peak_over_bound").
func bl(name string, ns float64, metrics ...string) string {
	s := fmt.Sprintf("%s-2   \t     100\t%12.0f ns/op", name, ns)
	for _, m := range metrics {
		s += "\t" + m
	}
	return s
}

// qps is a service QPS benchmark line at the given qps and cpus, under
// four sessions.
func qps(name string, ns, q, cpus float64) string {
	return bl(name, ns, fmt.Sprintf("%g qps", q), "1.2 p50_ms", "4.5 p99_ms",
		fmt.Sprintf("%g cpus", cpus), "4.000 sessions")
}

func TestCheck(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want string // substring of the error; "" means the run passes
		out  string // substring of the output
	}{
		{name: "tracing passes",
			in:  []string{bl(prepared, 1000), bl(traced, 1200), bl(workers4, 1000)},
			out: "tracing overhead Traced/Prepared 1.200 (bound <= 1.25)"},
		{name: "tracing fails",
			in:   []string{bl(prepared, 1000), bl(traced, 1300), bl(workers4, 1000)},
			want: "1 of 2 bounds failed", out: "FAIL: tracing overhead"},
		{name: "prepared alone reaches the workers bound too",
			in:   []string{bl(prepared, 1000), bl(traced, 1000)},
			want: "1 of 2 bounds failed", out: "missing BenchmarkExecutePreparedWorkers4 ns/op"},
		{name: "workers passes",
			in:  []string{bl(prepared, 1000), bl(traced, 1000), bl(workers4, 1400)},
			out: "workers overhead Workers4/Prepared 1.400 (bound <= 1.50)"},
		{name: "workers fails",
			in:   []string{bl(prepared, 1000), bl(traced, 1000), bl(workers4, 1600)},
			want: "1 of 2 bounds failed", out: "FAIL: workers overhead"},
		{name: "group commit passes",
			in:  []string{bl(appendSingle, 1000), bl(appendBatch, 70000)},
			out: "group commit (Batch100/100)/Single 0.700 (bound <= 0.80)"},
		{name: "group commit fails",
			in:   []string{bl(appendSingle, 1000), bl(appendBatch, 90000)},
			want: "1 of 1 bounds failed", out: "FAIL: group commit"},
		{name: "chunk scan passes",
			in:  []string{bl(chunkScan, 5000, "0.9 peak_over_bound", "0.3 peak_over_data")},
			out: "chunk-scan peak_over_bound 0.900 (bound <= 1.00)"},
		{name: "chunk scan fails",
			in:   []string{bl(chunkScan, 5000, "1.1 peak_over_bound")},
			want: "1 of 1 bounds failed", out: "FAIL: chunk-scan"},
		{name: "chunk scan without its metric",
			in:   []string{bl(chunkScan, 5000, "0.3 peak_over_data")},
			want: "1 of 1 bounds failed", out: "missing BenchmarkChunkScanQuery peak_over_bound"},
		{name: "qps floor when sessions fill the cpus",
			in:  []string{qps(qpsW1, 1000, 100, 2), qps(qpsW4, 1000, 70, 2), bl(direct, 1000)},
			out: "0.700 (bound >= 0.60)"},
		{name: "qps below the floor",
			in:   []string{qps(qpsW1, 1000, 100, 2), qps(qpsW4, 1000, 50, 2), bl(direct, 1000)},
			want: "1 of 2 bounds failed", out: "FAIL: qps W4/W1"},
		{name: "qps speedup when a cpu is idle",
			in:  []string{qps(qpsW1, 1000, 100, 8), qps(qpsW4, 1000, 120, 8), bl(direct, 1000)},
			out: "1.200 (bound >= 1.15)"},
		{name: "qps floor is not enough with an idle cpu",
			in:   []string{qps(qpsW1, 1000, 100, 8), qps(qpsW4, 1000, 110, 8), bl(direct, 1000)},
			want: "1 of 2 bounds failed", out: "1.100 (bound >= 1.15)"},
		{name: "cpus equal to sessions is no idle cpu",
			in:  []string{qps(qpsW1, 1000, 100, 4), qps(qpsW4, 1000, 110, 4), bl(direct, 1000)},
			out: "1.100 (bound >= 0.60)"},
		{name: "service overhead passes",
			in:  []string{qps(qpsW1, 1400, 100, 2), qps(qpsW4, 1000, 100, 2), bl(direct, 1000)},
			out: "service overhead W1/Direct 1.400 (bound <= 1.50)"},
		{name: "service overhead fails",
			in:   []string{qps(qpsW1, 1600, 100, 2), qps(qpsW4, 1000, 100, 2), bl(direct, 1000)},
			want: "1 of 2 bounds failed", out: "FAIL: service overhead"},
		{name: "traced without prepared",
			in:   []string{bl(traced, 1200)},
			want: "1 of 1 bounds failed", out: "missing BenchmarkExecutePrepared ns/op"},
		{name: "no bound applies",
			in:   []string{"goos: linux", bl("BenchmarkExecuteReference", 1000), "PASS"},
			want: "no bound applies"},
		{name: "empty input", want: "no bound applies"},
		{name: "fastest ns/op of each benchmark",
			in: []string{
				bl(prepared, 1000), bl(traced, 1500),
				bl(prepared, 1000), bl(traced, 1000),
				bl(prepared, 1000), bl(traced, 1500), bl(workers4, 1000),
			},
			out: "Traced/Prepared 1.000"},
		{name: "fastest ns/op can fail a run whose mean passes",
			in: []string{
				bl(prepared, 1000), bl(traced, 1000),
				bl(prepared, 700), bl(traced, 1000),
				bl(prepared, 1000), bl(traced, 1000), bl(workers4, 1000),
			},
			want: "1 of 2 bounds failed", out: "Traced/Prepared 1.429"},
		{name: "worst custom metric",
			in: []string{
				bl(chunkScan, 5000, "0.5 peak_over_bound"),
				bl(chunkScan, 4000, "1.2 peak_over_bound"),
				bl(chunkScan, 6000, "0.7 peak_over_bound"),
			},
			want: "1 of 1 bounds failed", out: "peak_over_bound 1.200"},
		{name: "all six bounds at once",
			in: []string{
				bl(prepared, 1000), bl(traced, 1000), bl(workers4, 1000),
				bl(appendSingle, 1000), bl(appendBatch, 10000), bl(chunkScan, 1, "0.5 peak_over_bound"),
				qps(qpsW1, 1000, 100, 2), qps(qpsW4, 1000, 100, 2), bl(direct, 1000),
			},
			out: "benchguard: OK"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := strings.Join(c.in, "\n")
			var out strings.Builder
			err := check(strings.NewReader(in), &out)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("check: %v\n%s", err, out.String())
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("check error = %v, want %q\n%s", err, c.want, out.String())
			}
			if c.want == "" && !strings.Contains(out.String(), "benchguard: OK") {
				t.Errorf("passing run does not print OK:\n%s", out.String())
			}
			if !strings.Contains(out.String(), c.out) {
				t.Errorf("output lacks %q:\n%s", c.out, out.String())
			}
			if !strings.HasPrefix(out.String(), in) {
				t.Errorf("bench output is not passed through:\n%s", out.String())
			}
		})
	}
}

// TestEveryInputRequired drops each benchmark a bound reads in turn:
// the bound still applies through the others and fails on the gap.
func TestEveryInputRequired(t *testing.T) {
	full := map[string]string{
		prepared: bl(prepared, 1000), traced: bl(traced, 1000), workers4: bl(workers4, 1000),
		appendSingle: bl(appendSingle, 1000), appendBatch: bl(appendBatch, 10000),
		chunkScan: bl(chunkScan, 1, "0.5 peak_over_bound"),
		qpsW1:     qps(qpsW1, 1000, 100, 2), qpsW4: qps(qpsW4, 1000, 100, 2), direct: bl(direct, 1000),
	}
	for _, b := range bounds {
		if len(b.reads) < 2 {
			continue
		}
		for _, drop := range b.reads {
			var in []string
			for _, name := range b.reads {
				if name != drop {
					in = append(in, full[name])
				}
			}
			var out strings.Builder
			err := check(strings.NewReader(strings.Join(in, "\n")), &out)
			if err == nil || !strings.Contains(out.String(), "missing "+drop+" ") {
				t.Errorf("%s without %s: err %v\n%s", b.name, drop, err, out.String())
			}
		}
	}
}
