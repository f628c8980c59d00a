package physdesign

import (
	"fmt"
	"math"
	"sort"
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
// Tune.
func tuneFull(w Workload, prov stats.Provider, opts Options) (*Recommendation, error) {
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
			if opts.StorageBytes > 0 && used+s.c.bytes > opts.StorageBytes {
				pool[best] = nil
				continue
			}
			if s.round == round {
				selected = best
				break
			}
			benefit, trialCosts, ok := evaluate(s.c)
			if !ok {
				pool[best] = nil
				continue
			}
			s.costs, s.round = trialCosts, round
			s.score = benefit / math.Max(float64(s.c.bytes), 1)
			if benefit <= 1e-9 {
				pool[best] = nil
			}
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

// TestTuneFinalPlansAreFull: the final pass re-plans every query from
// its base plan with Replan, and what it returns must be what planning
// each query from nothing under the chosen configuration on a fresh
// optimizer returns — cost bits and Explain. The workloads are the four
// DBLP classes core's pinned searches tune (scale 0.25, data seed 1,
// shape seed 7, five queries a class) under the hybrid mapping, with
// the tool's options of the pinned "default" and "vpart+storage" runs.
func TestTuneFinalPlansAreFull(t *testing.T) {
	base := schema.DBLP()
	gen := xmlgen.DefaultDBLPOptions()
	gen.Inproceedings /= 4
	gen.Books /= 4
	gen.Seed = 1
	col := xmlgen.CollectStats(base, xmlgen.GenerateDBLP(base, gen))
	m, err := shred.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	prov := shred.DeriveStats(m, col)
	// The pinned storage bound is 2 MiB including the data, as core's
	// physOpts hands it to the tool.
	storage := int64(2 << 20)
	for _, r := range m.Relations {
		storage -= prov.TableStats(r.Name).Bytes()
	}
	if storage < 1 {
		t.Fatalf("the data fills the 2 MiB bound: %d bytes left", storage)
	}
	for _, p := range workload.StandardParams(5, 7) {
		xw, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatal(err)
		}
		var w Workload
		for _, q := range xw.Queries {
			sql, err := translate.Translate(m, q.XPath)
			if err != nil {
				t.Fatal(err)
			}
			w = append(w, WeightedQuery{Q: sql, Weight: q.Weight})
		}
		for _, opts := range []Options{{}, {EnableVPartitions: true, StorageBytes: storage}} {
			label := fmt.Sprintf("%s options %+v", xw.Name, opts)
			rec, err := Tune(w, prov, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(rec.Config.Indexes)+len(rec.Config.Views)+len(rec.Config.Partitions) == 0 {
				t.Fatalf("%s: nothing recommended", label)
			}
			fresh := optimizer.New(prov)
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
