package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physdesign"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xpath"
)

const (
	// adviseScale sizes the document the statistics come from. Search
	// cost follows the statistics and the workload, not the row count.
	adviseScale = 0.25
	// adviseQueries is the size of each of the four paper workloads
	// (LP-HS, LP-LS, HP-HS, HP-LS). Five keeps a pass over the four near
	// 2.5 s, so that a window holds several passes; twenty, the size
	// Fig. 5 uses, takes 13 s a pass.
	adviseQueries = 5
)

type adviseFixture struct {
	c         *corpus
	workloads []*workload.Workload
	hybrid    []float64 // HybridBaseline estimated cost per workload
	setupS    float64   // corrected for memory speed
	setupNote string
}

func (cfg *config) adviseQueries() int {
	if cfg.quick {
		return 3
	}
	return adviseQueries
}

// setUpAdvise generates the document, its statistics and the four
// workloads (five times over, for a median), and costs the hybrid
// baseline that Greedy's answer is checked against.
func setUpAdvise(cfg *config) (*adviseFixture, error) {
	f := &adviseFixture{}
	tree := schema.DBLP()
	var reps []float64
	mem := &memSpeed{}
	for i := 0; i < 5; i++ {
		mem.sample()
		t0 := time.Now()
		c := generateCorpus(tree, cfg.scale(adviseScale), cfg.seed)
		c.collect()
		f.c, f.workloads = c, nil
		for class := 0; class < 4; class++ {
			w, _, err := generateQueries(c, class, cfg.adviseQueries())
			if err != nil {
				return nil, err
			}
			f.workloads = append(f.workloads, w)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	mem.sample()
	f.setupS = median(reps) / mem.factor()
	f.setupNote = fmt.Sprintf("set-up: %v; setup_s as measured, before the correction: %.4g", mem, median(reps))
	for _, w := range f.workloads {
		hy, err := f.advisor(w, core.Options{}).HybridBaseline()
		if err != nil {
			return nil, fmt.Errorf("hybrid baseline of %s: %w", w.Name, err)
		}
		f.hybrid = append(f.hybrid, hy.EstCost)
	}
	return f, nil
}

// advisor returns a fresh Advisor, so every search starts with a cold
// evaluation cache.
func (f *adviseFixture) advisor(w *workload.Workload, opts core.Options) *core.Advisor {
	opts.Parallelism = runtime.NumCPU()
	return core.New(f.c.tree, f.c.col, w, opts)
}

// check compares one search result with the oracle: every query must
// have translated under the recommended mapping, the design may not
// cost more than the untuned-mapping baseline, and the search must be
// deterministic (the same cost as the first pass found).
func (f *adviseFixture) check(r *run, i int, res *core.Result, first []float64) {
	w := f.workloads[i]
	r.attempted++
	switch {
	case len(res.SQL) != len(w.Queries) || len(res.PerQueryCost) != len(w.Queries):
		r.fail(1, "%s: %d of %d queries translated under the recommended mapping", w.Name, len(res.SQL), len(w.Queries))
	case res.EstCost > f.hybrid[i]*(1+1e-9):
		r.fail(1, "%s: Greedy's design costs %.3f, the hybrid baseline %.3f", w.Name, res.EstCost, f.hybrid[i])
	case first[i] != 0 && first[i] != res.EstCost:
		r.fail(1, "%s: search is not deterministic: cost %.6f, then %.6f", w.Name, first[i], res.EstCost)
	}
	if first[i] == 0 {
		first[i] = res.EstCost
	}
}

// runAdvise is the end-to-end run of advise_greedy: passes over the
// four workloads, a fresh Advisor per search, until the window is used.
func runAdvise(cfg *config, r *run) error {
	f, err := setUpAdvise(cfg)
	if err != nil {
		return err
	}
	f.c.doc = nil // the search reads statistics only
	first := make([]float64, len(f.workloads))
	var ops []op
	mem := &memSpeed{}
	win := beginWindow()
	for pass := 0; pass == 0 || time.Since(win.start).Seconds() < cfg.seconds; pass++ {
		for i, w := range f.workloads {
			mem.sample()
			t0 := time.Now()
			res, err := f.advisor(w, core.Options{}).Greedy()
			if err != nil {
				return fmt.Errorf("greedy on %s: %w", w.Name, err)
			}
			ops = append(ops, op{item: i, lat: time.Since(t0)})
			f.check(r, i, res, first)
		}
	}
	allocated, inuse := win.end()
	reportLoop(r, ops, tailSlowestKind, mem, allocated, inuse)
	r.set("setup_s", f.setupS)
	r.note("%s", f.setupNote)
	r.note("%d passes over %d workloads of %d queries; one operation is one Greedy search", len(ops)/len(f.workloads), len(f.workloads), cfg.adviseQueries())
	return nil
}

// traceAdvise is the traced run of advise_greedy: one pass, with the
// advisor's counters mirrored into a registry, and beside each search
// one direct what-if optimizer call per query and one direct tuner call
// on the untuned mapping.
func traceAdvise(cfg *config, r *run) error {
	f, err := setUpAdvise(cfg)
	if err != nil {
		return err
	}
	tr := newTracer(true)
	reg := obs.NewRegistry()
	before := reg.Snapshot()
	first := make([]float64, len(f.workloads))
	var met core.Metrics
	var greedyCost, hybridCost float64
	var costCalls, tunes, parses, translates, plans []float64
	var exec *adviseExec

	hybrid, err := shred.Compile(f.c.tree)
	if err != nil {
		return err
	}
	prov := shred.DeriveStats(hybrid, f.c.col)
	opt := optimizer.New(prov)
	for i, w := range f.workloads {
		root := tr.request("advise "+w.Name, int64(i))
		var res *core.Result
		adv := f.advisor(w, core.Options{Registry: reg})
		if _, err := root.do("Advisor.Greedy", func() error { res, err = adv.Greedy(); return err }); err != nil {
			return fmt.Errorf("greedy on %s: %w", w.Name, err)
		}
		f.check(r, i, res, first)
		m := res.Metrics
		met.Transformations += m.Transformations
		met.MappingsCosted += m.MappingsCosted
		met.CostsDerived += m.CostsDerived
		met.PhysDesignCalls += m.PhysDesignCalls
		met.OptimizerCalls += m.OptimizerCalls
		met.EvalCacheHits += m.EvalCacheHits
		met.EvalCacheMisses += m.EvalCacheMisses
		greedyCost += res.EstCost
		hybridCost += f.hybrid[i]

		var pw physdesign.Workload
		for _, wq := range w.Queries {
			text := wq.XPath.String()
			var xq *xpath.Query
			var sql *sqlast.Query
			d, err := root.do(rungParse, func() error { xq, err = xpath.Parse(text); return err })
			if err != nil {
				return err
			}
			parses = append(parses, us(d))
			if d, err = root.do(rungTranslate, func() error { sql, err = translate.Translate(hybrid, xq); return err }); err != nil {
				return err
			}
			translates = append(translates, us(d))
			if d, err = root.do(rungPlan, func() error { _, err := opt.PlanQuery(sql, &physical.Config{}); return err }); err != nil {
				return err
			}
			plans = append(plans, us(d))
			if d, err = root.do("Optimizer.Cost", func() error { _, err := opt.Cost(sql, &physical.Config{}); return err }); err != nil {
				return err
			}
			costCalls = append(costCalls, us(d))
			pw = append(pw, physdesign.WeightedQuery{Q: sql, Weight: wq.Weight, Tag: text})
		}
		d, err := root.do("physdesign.Tune", func() error { _, err := physdesign.Tune(pw, prov, physdesign.Options{}); return err })
		if err != nil {
			return err
		}
		tunes = append(tunes, ms(d))
		if i == 0 {
			// Fig. 4 on the first workload: measured execution under
			// Greedy's design over the hybrid baseline's.
			if exec, err = measureAdvised(f, adv, res, root); err != nil {
				return err
			}
		}
		root.end()
	}
	r.set("xpath.parse_us", median(parses))
	r.set("translate.translate_us", median(translates))
	r.set("optimizer.plan_us", median(plans))
	r.set("optimizer.cost_call_us", median(costCalls))
	r.set("physdesign.tune_ms", median(tunes))
	r.set("core.optimizer_calls", float64(met.OptimizerCalls))
	r.set("core.physdesign_calls", float64(met.PhysDesignCalls))
	r.set("core.transformations", float64(met.Transformations))
	r.set("core.mappings_costed", float64(met.MappingsCosted))
	r.set("core.costs_derived", float64(met.CostsDerived))
	r.set("core.eval_cache_hit_ratio", ratio(float64(met.EvalCacheHits), float64(met.EvalCacheHits+met.EvalCacheMisses)))
	r.set("core.advised_cost_ratio", ratio(greedyCost, hybridCost))
	r.set("core.advised_exec_ratio", exec.ratio)
	r.set("core.search_s", sum(tr.dur["Advisor.Greedy"])/1e6)
	r.note("traced run: one pass over %d workloads of %d queries; advised_exec_ratio is the median of %d Greedy/Hybrid MeasureExecution pairs on %s",
		len(f.workloads), cfg.adviseQueries(), exec.pairs, f.workloads[0].Name)
	return tr.finish(cfg, r.workload, before, reg.Snapshot())
}

type adviseExec struct {
	ratio float64
	pairs int
}

// measureAdvised runs the workload for real under Greedy's design and
// under the hybrid baseline's, five times each.
func measureAdvised(f *adviseFixture, adv *core.Advisor, res *core.Result, root *span) (*adviseExec, error) {
	hy, err := adv.HybridBaseline()
	if err != nil {
		return nil, err
	}
	const pairs = 5
	var ratios []float64
	for i := 0; i < pairs; i++ {
		var g, h *core.Execution
		if _, err := root.do("Advisor.MeasureExecution greedy", func() error { g, err = adv.MeasureExecution(res, f.c.doc); return err }); err != nil {
			return nil, err
		}
		if _, err := root.do("Advisor.MeasureExecution hybrid", func() error { h, err = adv.MeasureExecution(hy, f.c.doc); return err }); err != nil {
			return nil, err
		}
		ratios = append(ratios, ratio(g.Elapsed.Seconds(), h.Elapsed.Seconds()))
	}
	return &adviseExec{ratio: median(ratios), pairs: pairs}, nil
}
