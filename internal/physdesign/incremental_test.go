package physdesign

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/transform"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmlgen"
)

// tuneFull is the oracle: Tune as it stood before what-if calls became
// incremental. Every what-if call plans the whole query from nothing
// with PlanQuery, a query is skipped when Query.Tables() misses the
// candidate's tables, and structures enter a configuration through
// AddIndex/AddView/AddPartition. It shares candidate generation with
// Tune, and selects by lazy greedy as Tune does.
func tuneFull(w Workload, prov stats.Provider, opts Options) (*Recommendation, error) {
	return tuneOracle(w, prov, opts, false)
}

// tuneOracle is tuneFull with a switch: eager re-evaluates every
// remaining candidate at the start of every round, so each round picks
// the candidate of the highest fresh score (eager greedy); lazy
// re-evaluates only the highest stale score until the highest is fresh.
func tuneOracle(w Workload, prov stats.Provider, opts Options, eager bool) (*Recommendation, error) {
	addTo := func(c *candidate, cfg *physical.Config) bool {
		switch {
		case c.idx != nil:
			return cfg.AddIndex(c.idx)
		case c.view != nil:
			return cfg.AddView(c.view)
		default:
			return cfg.AddPartition(c.vpart)
		}
	}
	queryTouches := func(q *sqlast.Query, tables []string) bool {
		for _, t := range tables {
			if containsStr(q.Tables(), t) {
				return true
			}
		}
		return false
	}
	opt := optimizer.New(prov)
	cfg := &physical.Config{}
	costs := make([]float64, len(w))
	plans := make([]*optimizer.Plan, len(w))
	for i, wq := range w {
		p, err := opt.PlanQuery(wq.Q, cfg)
		if err != nil {
			return nil, err
		}
		plans[i] = p
		costs[i] = p.Cost
	}
	cands := generateCandidates(w, prov, opts)
	if len(cands) > defaultMaxCandidates {
		type ranked struct {
			c     *candidate
			score float64
		}
		var rs []ranked
		for _, c := range cands {
			trial := &physical.Config{}
			if !addTo(c, trial) {
				continue
			}
			benefit := -c.maintenanceCost(opts.InsertRates)
			for _, qi := range c.origins {
				p, err := opt.PlanQuery(w[qi].Q, trial)
				if err != nil {
					continue
				}
				benefit += w[qi].Weight * (costs[qi] - p.Cost)
			}
			if benefit <= 0 {
				continue
			}
			rs = append(rs, ranked{c, benefit / math.Max(float64(c.bytes), 1)})
		}
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].score > rs[j].score })
		if len(rs) > defaultMaxCandidates {
			rs = rs[:defaultMaxCandidates]
		}
		cands = cands[:0]
		for _, r := range rs {
			cands = append(cands, r.c)
		}
	}
	type scored struct {
		c     *candidate
		score float64
		round int
		costs []float64
	}
	evaluate := func(c *candidate) (float64, []float64, bool) {
		trial := cfg.Clone()
		if !addTo(c, trial) {
			return 0, nil, false
		}
		benefit := -c.maintenanceCost(opts.InsertRates)
		trialCosts := make([]float64, len(w))
		copy(trialCosts, costs)
		for i, wq := range w {
			if !queryTouches(wq.Q, c.tables) {
				continue
			}
			p, err := opt.PlanQuery(wq.Q, trial)
			if err != nil {
				return 0, nil, false
			}
			trialCosts[i] = p.Cost
			benefit += wq.Weight * (costs[i] - p.Cost)
		}
		return benefit, trialCosts, true
	}
	var pool []*scored
	for _, c := range cands {
		pool = append(pool, &scored{c: c, score: math.Inf(1), round: -1})
	}
	for round := 0; round < defaultMaxStructures && len(pool) > 0; round++ {
		used := cfg.EstBytes(prov)
		fits := func(s *scored) bool { return opts.StorageBytes <= 0 || used+s.c.bytes <= opts.StorageBytes }
		refresh := func(i int) {
			s := pool[i]
			benefit, trialCosts, ok := evaluate(s.c)
			if !ok {
				pool[i] = nil
				return
			}
			s.costs, s.round = trialCosts, round
			s.score = benefit / math.Max(float64(s.c.bytes), 1)
			if benefit <= 1e-9 {
				pool[i] = nil
			}
		}
		if eager {
			for i, s := range pool {
				if s == nil {
					continue
				}
				if !fits(s) {
					pool[i] = nil
					continue
				}
				refresh(i)
			}
		}
		selected := -1
		for {
			best := -1
			for i, s := range pool {
				if s != nil && (best < 0 || s.score > pool[best].score) {
					best = i
				}
			}
			if best < 0 || pool[best].score <= 1e-12 {
				break
			}
			s := pool[best]
			if !fits(s) {
				pool[best] = nil
				continue
			}
			if s.round == round {
				selected = best
				break
			}
			refresh(best)
		}
		if selected < 0 {
			break
		}
		addTo(pool[selected].c, cfg)
		costs = pool[selected].costs
		pool[selected] = nil
	}
	total := 0.0
	for i, wq := range w {
		p, err := opt.PlanQuery(wq.Q, cfg)
		if err != nil {
			return nil, err
		}
		plans[i] = p
		costs[i] = p.Cost
		total += wq.Weight * p.Cost
	}
	maint := configMaintenance(cfg, opts.InsertRates)
	return &Recommendation{Config: cfg, PerQuery: costs, Plans: plans, TotalCost: total + maint,
		StructBytes: cfg.EstBytes(prov), MaintenanceCost: maint, OptimizerCalls: opt.Calls()}, nil
}

// dblpWorkloads translates a 16-query DBLP workload (four of each Fig. 5
// class) under the hybrid mapping and a transformed one; both yield more
// candidates than the prefilter keeps.
func dblpWorkloads(t *testing.T) (ws []Workload, provs []stats.MapProvider) {
	t.Helper()
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 1500, Books: 150, Seed: 72})
	col := xmlgen.CollectStats(base, doc)
	var xw workload.Workload
	for _, p := range workload.StandardParams(4, 3) {
		w, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatal(err)
		}
		xw.Queries = append(xw.Queries, w.Queries...)
	}
	split := base
	for _, tr := range transform.EnumerateNonSubsumed(base, col) {
		if next, err := tr.Apply(split); err == nil && (tr.Kind == transform.RepSplit || tr.Kind == transform.UnionDist) {
			split = next
		}
	}
	for _, tree := range []*schema.Tree{base, split} {
		m, err := shred.Compile(tree)
		if err != nil {
			t.Fatal(err)
		}
		var w Workload
		for i, q := range xw.Queries {
			sql, err := translate.Translate(m, q.XPath)
			if err != nil {
				t.Fatal(err)
			}
			w = append(w, WeightedQuery{Q: sql, Weight: float64(1 + i%3)})
		}
		ws, provs = append(ws, w), append(provs, shred.DeriveStats(m, col))
	}
	return ws, provs
}

// pinnedFixture is what core's pinned searches tune first: the four
// DBLP classes (scale 0.25, data seed 1, shape seed 7, five queries a
// class) under the hybrid mapping, and the tool's storage bound of the
// pinned "vpart+storage" run (2 MiB including the data, as core's
// physOpts hands it to the tool).
type pinnedFixture struct {
	names   []string
	ws      []Workload
	prov    stats.Provider
	storage int64
}

func newPinnedFixture(tb testing.TB) pinnedFixture {
	tb.Helper()
	base := schema.DBLP()
	gen := xmlgen.DefaultDBLPOptions()
	gen.Inproceedings /= 4
	gen.Books /= 4
	gen.Seed = 1
	col := xmlgen.CollectStats(base, xmlgen.GenerateDBLP(base, gen))
	m, err := shred.Compile(base)
	if err != nil {
		tb.Fatal(err)
	}
	fx := pinnedFixture{prov: shred.DeriveStats(m, col), storage: 2 << 20}
	for _, r := range m.Relations {
		fx.storage -= fx.prov.TableStats(r.Name).Bytes()
	}
	if fx.storage < 1 {
		tb.Fatalf("the data fills the 2 MiB bound: %d bytes left", fx.storage)
	}
	for _, p := range workload.StandardParams(5, 7) {
		xw, err := workload.Generate(base, col, p)
		if err != nil {
			tb.Fatal(err)
		}
		var w Workload
		for _, q := range xw.Queries {
			sql, err := translate.Translate(m, q.XPath)
			if err != nil {
				tb.Fatal(err)
			}
			w = append(w, WeightedQuery{Q: sql, Weight: q.Weight})
		}
		fx.names, fx.ws = append(fx.names, xw.Name), append(fx.ws, w)
	}
	return fx
}

// pinnedRuns names the pinned runs fixture.options returns the options
// of, in order.
var pinnedRuns = []string{"default", "vpart+storage"}

// options are the tool's options of the pinned runs.
func (fx pinnedFixture) options() []Options {
	return []Options{{}, {EnableVPartitions: true, StorageBytes: fx.storage}}
}

// TestTuneFinalPlansAreFull: the final pass re-plans every query from
// its base plan with Replan, and what it returns must be what planning
// each query from nothing under the chosen configuration on a fresh
// optimizer returns — cost bits and Explain — over the pinned fixture
// under both pinned options.
func TestTuneFinalPlansAreFull(t *testing.T) {
	fx := newPinnedFixture(t)
	for wi, w := range fx.ws {
		for _, opts := range fx.options() {
			label := fmt.Sprintf("%s options %+v", fx.names[wi], opts)
			rec, err := Tune(w, fx.prov, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(rec.Config.Indexes)+len(rec.Config.Views)+len(rec.Config.Partitions) == 0 {
				t.Fatalf("%s: nothing recommended", label)
			}
			fresh := optimizer.New(fx.prov)
			for i, wq := range w {
				want, err := fresh.PlanQuery(wq.Q, rec.Config)
				if err != nil {
					t.Fatalf("%s: query %d: %v", label, i, err)
				}
				got := rec.Plans[i]
				if bits := math.Float64bits; bits(got.Cost) != bits(want.Cost) || bits(rec.PerQuery[i]) != bits(want.Cost) {
					t.Errorf("%s: query %d cost %v (per query %v), planned from nothing %v", label, i, got.Cost, rec.PerQuery[i], want.Cost)
				}
				if g, w := got.Explain(), want.Explain(); g != w {
					t.Errorf("%s: query %d plan\n%swant\n%s", label, i, g, w)
				}
			}
		}
	}
}

// unusedStructures names the chosen structures no final plan uses: an
// index, view or partition that no plan's Objects lists, where an EXISTS
// or OR-EXISTS probe counts as using the first chosen index leading with
// its join column (plan text names no index for a probe).
func unusedStructures(rec *Recommendation) []string {
	used := make(map[string]bool)
	for _, p := range rec.Plans {
		for _, o := range p.Objects() {
			used[o] = true
		}
		for _, b := range p.Branches {
			for _, pr := range b.Sel.Where {
				if pr.Kind != sqlast.PredExists && pr.Kind != sqlast.PredOrExists {
					continue
				}
				for _, idx := range rec.Config.Indexes {
					if idx.Table == pr.Table && idx.Key[0] == pr.JoinCol {
						used[idx.ID()] = true
						break
					}
				}
			}
		}
	}
	var out []string
	for _, idx := range rec.Config.Indexes {
		if !used[idx.ID()] {
			out = append(out, idx.Name)
		}
	}
	for _, v := range rec.Config.Views {
		if !used["view:"+v.Name] {
			out = append(out, v.Name)
		}
	}
	for _, vp := range rec.Config.Partitions {
		usedGroup := false
		for g := range vp.Groups {
			usedGroup = usedGroup || used[vp.Table+"#g"+strconv.Itoa(g)]
		}
		if !usedGroup {
			out = append(out, vp.ID())
		}
	}
	return out
}

// structureIDs lists the IDs of a configuration's structures, sorted:
// the set it chose, whatever the order.
func structureIDs(cfg *physical.Config) []string {
	var ids []string
	for _, idx := range cfg.Indexes {
		ids = append(ids, idx.ID())
	}
	for _, v := range cfg.Views {
		ids = append(ids, v.ID())
	}
	for _, vp := range cfg.Partitions {
		ids = append(ids, vp.ID())
	}
	sort.Strings(ids)
	return ids
}

// TestTuneLazyAgainstEager is a report, not a gate: it runs Tune (lazy
// greedy) and the oracle's eager greedy over the pinned fixture under
// both pinned options, and over TestTuneMatchesFullReplanning's DBLP and
// Movie workloads under the default options. It logs each call whose two
// sets of structures differ with both costs, then in how many calls they
// differ and how many chosen structures no final plan uses.
func TestTuneLazyAgainstEager(t *testing.T) {
	type call struct {
		label string
		w     Workload
		prov  stats.Provider
		opts  Options
	}
	var calls []call
	fx := newPinnedFixture(t)
	for oi, opts := range fx.options() {
		for wi, w := range fx.ws {
			calls = append(calls, call{fx.names[wi] + " " + pinnedRuns[oi], w, fx.prov, opts})
		}
	}
	ws, provs := dblpWorkloads(t)
	mw, mprov, _ := movieWorkload(t)
	ws, provs = append(ws, mw), append(provs, mprov)
	for wi, w := range ws {
		calls = append(calls, call{fmt.Sprintf("workload %d", wi), w, provs[wi], Options{}})
	}
	differ, lazyCheaper, eagerCheaper := 0, 0, 0
	var chosen, unused [2]int // lazy, eager
	for _, c := range calls {
		lazy, err := Tune(c.w, c.prov, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		eager, err := tuneOracle(c.w, c.prov, c.opts, true)
		if err != nil {
			t.Fatalf("%s: eager: %v", c.label, err)
		}
		for i, rec := range []*Recommendation{lazy, eager} {
			chosen[i] += len(rec.Config.Indexes) + len(rec.Config.Views) + len(rec.Config.Partitions)
			unused[i] += len(unusedStructures(rec))
		}
		if !slices.Equal(structureIDs(lazy.Config), structureIDs(eager.Config)) {
			differ++
			switch {
			case lazy.TotalCost < eager.TotalCost:
				lazyCheaper++
			case eager.TotalCost < lazy.TotalCost:
				eagerCheaper++
			}
			t.Logf("%s: lazy and eager differ: cost %v lazy, %v eager; optimizer calls %d lazy, %d eager",
				c.label, lazy.TotalCost, eager.TotalCost, lazy.OptimizerCalls, eager.OptimizerCalls)
		}
	}
	t.Logf("%d of %d calls choose a different set of structures (lazy cheaper in %d, eager in %d); no final plan uses %d of %d structures lazy chose, %d of %d eager chose",
		differ, len(calls), lazyCheaper, eagerCheaper, unused[0], chosen[0], unused[1], chosen[1])
}

// BenchmarkTune runs one Tune per class of the pinned fixture under the
// default options, with its bytes and allocations per call.
func BenchmarkTune(b *testing.B) {
	fx := newPinnedFixture(b)
	for wi, w := range fx.ws {
		b.Run(fx.names[wi], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Tune(w, fx.prov, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTuneMatchesFullReplanning: incremental what-if costing is an
// implementation detail of Tune — configuration, every cost to the bit,
// sizes and the optimizer-call count equal the full re-planning loop's.
func TestTuneMatchesFullReplanning(t *testing.T) {
	ws, provs := dblpWorkloads(t)
	mw, mprov, _ := movieWorkload(t)
	ws, provs = append(ws, mw), append(provs, mprov)
	for wi, w := range ws {
		prov := provs[wi]
		unbounded, err := tuneFull(w, prov, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if wi < 2 && len(generateCandidates(w, prov, Options{})) <= defaultMaxCandidates {
			t.Fatalf("workload %d does not reach the prefilter", wi)
		}
		bound := unbounded.StructBytes / 3
		rates := map[string]float64{}
		for _, t := range w[0].Q.Tables() {
			rates[t] = 40
		}
		for _, opts := range []Options{
			{},
			{EnableVPartitions: true},
			{EnableVPartitions: true, StorageBytes: bound},
			{DisableViews: true, StorageBytes: bound},
			{InsertRates: rates},
		} {
			label := fmt.Sprintf("workload %d options %+v", wi, opts)
			want, err := tuneFull(w, prov, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := Tune(w, prov, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			bits := math.Float64bits
			if got.Config.String() != want.Config.String() {
				t.Errorf("%s: configuration\n%swant\n%s", label, got.Config, want.Config)
			}
			if bits(got.TotalCost) != bits(want.TotalCost) || bits(got.MaintenanceCost) != bits(want.MaintenanceCost) {
				t.Errorf("%s: total/maintenance %v/%v, want %v/%v", label,
					got.TotalCost, got.MaintenanceCost, want.TotalCost, want.MaintenanceCost)
			}
			if got.StructBytes != want.StructBytes || got.OptimizerCalls != want.OptimizerCalls {
				t.Errorf("%s: bytes/calls %d/%d, want %d/%d", label,
					got.StructBytes, got.OptimizerCalls, want.StructBytes, want.OptimizerCalls)
			}
			for i := range want.PerQuery {
				if bits(got.PerQuery[i]) != bits(want.PerQuery[i]) {
					t.Errorf("%s: query %d cost %v, want %v", label, i, got.PerQuery[i], want.PerQuery[i])
				}
				if g, w := got.Plans[i].Explain(), want.Plans[i].Explain(); g != w {
					t.Errorf("%s: query %d plan\n%swant\n%s", label, i, g, w)
				}
			}
		}
	}
}
