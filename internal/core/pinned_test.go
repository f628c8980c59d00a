package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/workload"
	"repro/internal/xmlgen"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/search_pinned.golden from this tree's results")

const pinnedGolden = "search_pinned.golden"

// pinnedFixtures are the four DBLP workload classes of bench/'s
// advise_greedy: scale 0.25, data seed 1, shape seed 7, n queries a
// class (the golden file pins five).
func pinnedFixtures(t *testing.T, n int) []*fixture {
	t.Helper()
	base := schema.DBLP()
	opts := xmlgen.DefaultDBLPOptions()
	opts.Inproceedings /= 4
	opts.Books /= 4
	opts.Seed = 1
	col := xmlgen.CollectStats(base, xmlgen.GenerateDBLP(base, opts))
	var out []*fixture
	for _, p := range workload.StandardParams(n, 7) {
		w, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &fixture{base: base, col: col, w: w})
	}
	return out
}

// pinnedStorage leaves the tuner about 0.3 MB beyond the hybrid
// mapping's 1.7 MB of data; unbounded, Greedy picks 1.4 MB of
// structures on the first class, so the bound binds.
const pinnedStorage = 2 << 20

var pinnedOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"vpart", Options{EnableVPartitions: true}},
	{"vpart+storage", Options{EnableVPartitions: true, StorageBytes: pinnedStorage}},
	{"noviews+storage", Options{DisableViews: true, StorageBytes: pinnedStorage}},
	{"noderivation+subsumed", Options{DisableCostDerivation: true, SearchSubsumed: true}},
}

// renderPinned prints everything a search decides, floats as hex bits:
// a result that renders the same is the same design reached by the same
// search at the same cost.
func renderPinned(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost %016x\n", math.Float64bits(res.EstCost))
	for i, c := range res.PerQueryCost {
		fmt.Fprintf(&b, "query %d cost %016x\n", i, math.Float64bits(c))
	}
	m := res.Metrics
	fmt.Fprintf(&b, "metrics transformations=%d costed=%d derived=%d tool=%d optimizer=%d hits=%d misses=%d\n",
		m.Transformations, m.MappingsCosted, m.CostsDerived, m.PhysDesignCalls, m.OptimizerCalls,
		m.EvalCacheHits, m.EvalCacheMisses)
	fmt.Fprintf(&b, "tree %s\n", res.Tree.Signature())
	b.WriteString("config\n" + res.Config.String())
	for i, p := range res.Plans {
		fmt.Fprintf(&b, "plan %d\n%s", i, p.Explain())
	}
	return b.String()
}

// pinnedRuns lists the searches the golden file pins: Greedy on every
// class under every option set, Naive-Greedy and Two-Step on one class.
func pinnedRuns(fxs []*fixture) (names []string, run []func(par int) (*Result, error)) {
	add := func(name string, fx *fixture, opts Options, alg func(*Advisor) (*Result, error)) {
		names = append(names, name)
		run = append(run, func(par int) (*Result, error) {
			opts.Parallelism = par
			return alg(New(fx.base, fx.col, fx.w, opts))
		})
	}
	for _, fx := range fxs {
		for _, po := range pinnedOptions {
			add("greedy/"+fx.w.Name+"/"+po.name, fx, po.opts, (*Advisor).Greedy)
		}
	}
	add("naive/"+fxs[0].w.Name, fxs[0], Options{MaxRounds: 1}, (*Advisor).NaiveGreedy)
	add("twostep/"+fxs[2].w.Name, fxs[2], Options{}, (*Advisor).TwoStep)
	return names, run
}

// TestGreedyResultPinned compares every pinned search, sequential and
// at Parallelism 4, with the golden file recorded at the commit before
// what-if costing became incremental (go test ./internal/core -run
// TestGreedyResultPinned -update rewrites it). The tuner and optimizer
// may get faster; cost bits, chosen design, plans and every effort
// counter may not move.
func TestGreedyResultPinned(t *testing.T) {
	names, run := pinnedRuns(pinnedFixtures(t, 5))
	path := filepath.Join("testdata", pinnedGolden)
	if *updatePinned {
		var b strings.Builder
		for i, name := range names {
			res, err := run[i](1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "=== %s\n%s", name, renderPinned(res))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, sec := range strings.Split(string(data), "=== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = body
	}
	if len(want) != len(names) {
		t.Fatalf("golden file has %d sections, the test runs %d searches", len(want), len(names))
	}
	pars := []int{1, 4}
	if testing.Short() {
		pars = []int{4}
	}
	for i, name := range names {
		for _, par := range pars {
			res, err := run[i](par)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, par, err)
			}
			if got := renderPinned(res); got != want[name] {
				t.Errorf("%s parallelism %d differs from the golden file:\n%s", name, par, firstDiff(want[name], got))
			}
		}
	}
}

// firstDiff shows the first line two renderings disagree on.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n want %s\n got  %s", i+1, wl, gl)
		}
	}
	return "(equal)"
}
