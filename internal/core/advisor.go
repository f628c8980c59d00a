// Package core implements the paper's contribution: the combined
// logical + physical design search of Section 4. Given an annotated
// XSD schema tree, an XPath workload, statistics collected once at the
// finest granularity, and a storage bound, it finds a mapping and a
// physical configuration minimizing the estimated workload cost.
//
// Algorithms: Greedy (Fig. 3, with candidate selection §4.5,
// repetition-split count selection §4.6, candidate merging §4.7, and
// cost derivation §4.8), Naive-Greedy (§4.2), Two-Step (§5.1.1), and
// the hybrid-inlining baseline [20].
package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physdesign"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/workload"
)

// MergeStrategy selects the candidate merging mode of Section 4.7.
type MergeStrategy int

const (
	// MergeGreedy is the paper's cost-based greedy pairwise merging.
	MergeGreedy MergeStrategy = iota
	// MergeNone disables candidate merging.
	MergeNone
	// MergeExhaustive enumerates every merged candidate.
	MergeExhaustive
)

func (m MergeStrategy) String() string {
	switch m {
	case MergeNone:
		return "none"
	case MergeExhaustive:
		return "exhaustive"
	}
	return "greedy"
}

// Options configures a search run.
type Options struct {
	// StorageBytes is the bound S on data plus structures; the
	// physical design tool receives what remains after the data.
	StorageBytes int64
	// Merge selects the candidate merging strategy (Fig. 8).
	Merge MergeStrategy
	// DisableCostDerivation turns off Section 4.8 (Fig. 9).
	DisableCostDerivation bool
	// DisableCandidateSelection replaces per-query candidate selection
	// with the full non-subsumed enumeration (Fig. 7's "other rules").
	DisableCandidateSelection bool
	// SearchSubsumed additionally searches subsumed transformations as
	// greedy candidates (Fig. 7's main ablation).
	SearchSubsumed bool
	// MaxRounds caps greedy rounds (0 = unlimited).
	MaxRounds int
	// DisableViews forwards to the physical design tool.
	DisableViews bool
	// EnableVPartitions forwards to the physical design tool.
	EnableVPartitions bool
	// Trace, when non-nil, receives per-round search narration.
	Trace io.Writer
	// Obs, when non-nil, records structured spans for every search
	// phase (candidate selection, candidate merging, per-candidate
	// evaluation, cost derivation, tuner calls); attach the same tracer
	// to the engine (Built.AttachObs) to cover executor stages too. A
	// nil tracer keeps every instrumented path a near-no-op.
	Obs *obs.Tracer
	// Registry, when non-nil, receives live counter/gauge mirrors of
	// the Metrics this run accumulates (advisor.* names), suitable for
	// expvar / -debug-addr exposure. The Metrics struct on Result stays
	// the per-run compatibility view.
	Registry *obs.Registry
	// Parallelism bounds concurrent candidate evaluations in every
	// search strategy — Greedy's per-round ranking and exact fallback
	// sweep, Naive-Greedy's enumeration, and Two-Step's phase-1 loop
	// (0 or 1 = sequential). Candidate costing only reads shared state,
	// so rounds parallelize cleanly; results and metric counts are
	// bit-identical to sequential runs at any setting.
	Parallelism int
	// Workers is the number of goroutines each execution MeasureExecution
	// and CostAudit perform runs on (0 or 1 = one goroutine, the
	// caller's; < 0 = GOMAXPROCS; see
	// engine.PreparedPlan.ExecuteContextWorkers). Results are
	// bit-identical at any setting; only wall-clock time changes.
	Workers int
}

// tracef writes search narration when tracing is enabled.
func (a *Advisor) tracef(format string, args ...any) {
	if a.Opts.Trace != nil {
		fmt.Fprintf(a.Opts.Trace, format+"\n", args...)
	}
}

// Metrics records search effort.
type Metrics struct {
	// Duration is the wall-clock search time.
	Duration time.Duration
	// Transformations is the number of transformation applications
	// enumerated (mappings generated).
	Transformations int
	// MappingsCosted is the number of mappings whose cost was fully
	// estimated by the physical design tool.
	MappingsCosted int
	// CostsDerived is the number of mapping costs obtained via cost
	// derivation instead of full tuning.
	CostsDerived int
	// PhysDesignCalls counts physical design tool invocations.
	PhysDesignCalls int
	// OptimizerCalls counts what-if optimizer invocations.
	OptimizerCalls int64
	// TuneCalls splits the optimizer calls the physical design tool made
	// by the phase of its search that made them.
	TuneCalls physdesign.PhaseCalls
	// EvalCacheHits counts evaluations answered from the shared
	// memoization cache instead of being recomputed; EvalCacheMisses
	// counts evaluations computed and cached. Hits carry none of the
	// tool/optimizer effort the other counters measure.
	EvalCacheHits, EvalCacheMisses int
	// Dropped counts the candidates a round costed and dropped because
	// a workload query does not translate under them, indexed by the
	// translator's refusal kind.
	Dropped [translate.MaxUnsupportedKind + 1]int
}

// merge accumulates another run's effort counters (used when candidate
// evaluations run in parallel). Duration accumulates too: per-candidate
// metrics never carry one, and callers that sum sub-run metrics (the
// experiment harness) used to silently lose the sub-runs' wall time.
func (m *Metrics) merge(o Metrics) {
	m.Duration += o.Duration
	m.Transformations += o.Transformations
	m.MappingsCosted += o.MappingsCosted
	m.CostsDerived += o.CostsDerived
	m.PhysDesignCalls += o.PhysDesignCalls
	m.OptimizerCalls += o.OptimizerCalls
	m.TuneCalls.Add(o.TuneCalls)
	m.EvalCacheHits += o.EvalCacheHits
	m.EvalCacheMisses += o.EvalCacheMisses
	for k, n := range o.Dropped {
		m.Dropped[k] += n
	}
}

// droppedSummary renders the non-zero Dropped counts in kind order as
// "kind=n …", empty when no candidate was dropped.
func (m *Metrics) droppedSummary() string {
	var parts []string
	for k, n := range m.Dropped {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", translate.UnsupportedKind(k), n))
		}
	}
	return strings.Join(parts, " ")
}

// Result is a search outcome.
type Result struct {
	// Algorithm names the search algorithm.
	Algorithm string
	// Tree is the recommended annotated schema (the logical design).
	Tree *schema.Tree
	// Mapping is the compiled relational mapping.
	Mapping *shred.Mapping
	// Config is the recommended physical configuration.
	Config *physical.Config
	// SQL are the workload queries translated under Mapping.
	SQL []*sqlast.Query
	// Prov holds the derived statistics the recommendation was costed
	// with.
	Prov stats.MapProvider
	// EstCost is the estimated weighted workload cost.
	EstCost float64
	// PerQueryCost are the estimated costs of each workload query under
	// Config, aligned with SQL (the cost-audit baseline).
	PerQueryCost []float64
	// Plans are the optimizer plans behind PerQueryCost (EXPLAIN
	// reporting and the cost audit).
	Plans []*optimizer.Plan
	// Metrics records the search effort.
	Metrics Metrics
}

// Advisor runs the search algorithms. Create one with New.
type Advisor struct {
	// Base is the starting annotated schema (hybrid inlining).
	Base *schema.Tree
	// Col holds the finest-granularity statistics (Section 4.1).
	Col *stats.Collection
	// W is the XPath workload.
	W *workload.Workload
	// Opts configures the run.
	Opts Options

	// The shared evaluation service (memoization caches),
	// made by New from Opts.
	*evalService
}

// New creates an advisor.
func New(base *schema.Tree, col *stats.Collection, w *workload.Workload, opts Options) *Advisor {
	a := &Advisor{Base: base, Col: col, W: w, Opts: opts}
	a.evalService = newEvalService(a)
	return a
}

// physOpts derives the tool options, subtracting the data size of the
// given mapping from the storage bound.
func (a *Advisor) physOpts(prov stats.Provider, m *shred.Mapping) physdesign.Options {
	opts := physdesign.Options{
		DisableViews:      a.Opts.DisableViews,
		EnableVPartitions: a.Opts.EnableVPartitions,
	}
	if a.Opts.StorageBytes > 0 {
		var data int64
		for _, r := range m.Relations {
			if ts := prov.TableStats(r.Name); ts != nil {
				data += ts.Bytes()
			}
		}
		left := a.Opts.StorageBytes - data
		if left < 1 {
			left = 1
		}
		opts.StorageBytes = left
	}
	if len(a.W.Updates) > 0 {
		opts.InsertRates = a.insertRates(m, prov)
	}
	return opts
}

// insertRates converts the workload's element-level insert streams to
// per-table row rates under a mapping: inserting one instance of an
// element inserts rows into the relation of every descendant-or-self
// anchor, at the average per-instance fanout taken from the
// statistics, split across partition relations by their row shares.
func (a *Advisor) insertRates(m *shred.Mapping, prov stats.Provider) map[string]float64 {
	rates := make(map[string]float64)
	for _, u := range a.W.Updates {
		for _, elem := range m.Tree.ElementsNamed(u.Element) {
			elemCount := float64(a.Col.InstanceCount(elem.ID))
			if elemCount == 0 {
				continue
			}
			for _, r := range m.Relations {
				var perInstance float64
				for _, anchor := range r.Anchors {
					if !descendantOrSelf(anchor, elem) {
						continue
					}
					perInstance += float64(a.Col.InstanceCount(anchor.ID)) / elemCount
				}
				if perInstance == 0 {
					continue
				}
				// Split across sibling partitions by row share.
				share := 1.0
				group := m.RelationsOf(r.Ann)
				if len(group) > 1 {
					var total, mine float64
					for _, pr := range group {
						if ts := prov.TableStats(pr.Name); ts != nil {
							total += float64(ts.Rows)
							if pr == r {
								mine = float64(ts.Rows)
							}
						}
					}
					if total > 0 {
						share = mine / total
					}
				}
				rates[r.Name] += u.Rate * perInstance * share
			}
		}
	}
	return rates
}

// descendantOrSelf reports whether n is elem or a descendant of it.
func descendantOrSelf(n, elem *schema.Node) bool {
	for p := n; p != nil; p = p.Parent {
		if p == elem {
			return true
		}
	}
	return false
}

// evalResult is a fully costed mapping.
type evalResult struct {
	tree    *schema.Tree
	sig     string // tree's Signature, set on every evaluation evaluate returns
	mapping *shred.Mapping
	prov    stats.MapProvider
	sqls    []*sqlast.Query
	rec     *physdesign.Recommendation
	cost    float64

	// objects are rec.Plans[i].Objects(), listed by planObjects on the
	// first derivation from this evaluation for every later one to read.
	objectsOnce sync.Once
	objects     [][]string
}

// planObjects returns every final plan's Objects(), listed once: the
// round workers' derivations from one evaluation share the lists.
func (ev *evalResult) planObjects() [][]string {
	ev.objectsOnce.Do(func() {
		ev.objects = make([][]string, len(ev.rec.Plans))
		for i, p := range ev.rec.Plans {
			if p != nil {
				ev.objects[i] = p.Objects()
			}
		}
	})
	return ev.objects
}

// evaluateFull compiles, translates, derives statistics, and tunes a
// mapping — one full physical design tool call (the cache-miss path of
// evaluate). sig is the tree's Signature. Each call is one
// per-candidate-evaluation span with a nested tuner-call span.
func (a *Advisor) evaluateFull(tree *schema.Tree, sig string, met *Metrics) (*evalResult, error) {
	sp := a.Opts.Obs.StartSpan("advisor.evaluate")
	defer sp.End()
	ev, w, err := a.prepare(tree)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	ev.sig = sig
	sp.SetAttr(obs.Int("relations", int64(len(ev.mapping.Relations))))
	tsp := sp.Child("physdesign.tune")
	popts := a.physOpts(ev.prov, ev.mapping)
	popts.Obs = tsp
	rec, err := physdesign.Tune(w, ev.prov, popts)
	tsp.End()
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	met.PhysDesignCalls++
	met.MappingsCosted++
	met.OptimizerCalls += rec.OptimizerCalls
	met.TuneCalls.Add(rec.Calls)
	ev.rec = rec
	ev.cost = rec.TotalCost
	sp.SetAttr(obs.Float("cost", ev.cost))
	return ev, nil
}

// prepare compiles and translates a mapping without tuning. The
// search's shred memo supplies every relation and statistic the tree
// shares with a mapping prepared before.
func (a *Advisor) prepare(tree *schema.Tree) (*evalResult, physdesign.Workload, error) {
	m, err := a.shreds.Compile(tree)
	if err != nil {
		return nil, nil, err
	}
	prov := a.shreds.DeriveStats(m)
	ev := &evalResult{tree: tree, mapping: m, prov: prov, sqls: make([]*sqlast.Query, len(a.W.Queries))}
	for i, q := range a.W.Queries {
		sql, err := translate.Translate(m, q.XPath)
		if err != nil {
			return nil, nil, fmt.Errorf("core: translating %s: %w", q.XPath, err)
		}
		ev.sqls[i] = sql
	}
	if a.observe != nil {
		a.observe(ev)
	}
	return ev, a.workloadOf(ev.sqls), nil
}

// workloadOf is the tuner's workload of the queries translated as sqls.
func (a *Advisor) workloadOf(sqls []*sqlast.Query) physdesign.Workload {
	w := make(physdesign.Workload, len(sqls))
	for i, sql := range sqls {
		q := a.W.Queries[i]
		w[i] = physdesign.WeightedQuery{Q: sql, Weight: q.Weight, Tag: a.tags[i]}
	}
	return w
}

// HybridBaseline tunes the physical design of the hybrid-inlining
// mapping without any logical search — the normalization baseline of
// Section 5.1.4.
func (a *Advisor) HybridBaseline() (*Result, error) {
	start := time.Now()
	var met Metrics
	ev, err := a.evaluate(sign(a.Base.Clone()), &met)
	if err != nil {
		return nil, err
	}
	met.Duration = time.Since(start)
	return a.result("Hybrid", ev, met), nil
}

func (a *Advisor) result(alg string, ev *evalResult, met Metrics) *Result {
	if s := met.droppedSummary(); s != "" {
		a.tracef("%s: candidates dropped on a query that does not translate: %s", strings.ToLower(alg), s)
	}
	a.publishMetrics(alg, met, ev.cost)
	return &Result{
		Algorithm:    alg,
		Tree:         ev.tree,
		Mapping:      ev.mapping,
		Config:       ev.rec.Config,
		SQL:          ev.sqls,
		Prov:         ev.prov,
		EstCost:      ev.cost,
		PerQueryCost: ev.rec.PerQuery,
		Plans:        ev.rec.Plans,
		Metrics:      met,
	}
}

// publishMetrics mirrors a finished run's Metrics into the registry
// (advisor.* counters accumulate across runs; gauges hold the latest
// run). No-op without a registry.
func (a *Advisor) publishMetrics(alg string, met Metrics, cost float64) {
	reg := a.Opts.Registry
	if reg == nil {
		return
	}
	reg.Counter("advisor.runs").Inc()
	reg.Counter("advisor.transformations").Add(int64(met.Transformations))
	reg.Counter("advisor.mappings_costed").Add(int64(met.MappingsCosted))
	reg.Counter("advisor.costs_derived").Add(int64(met.CostsDerived))
	reg.Counter("advisor.physdesign_calls").Add(int64(met.PhysDesignCalls))
	reg.Counter("advisor.optimizer_calls").Add(met.OptimizerCalls)
	reg.Counter("advisor.eval_cache_hits").Add(int64(met.EvalCacheHits))
	reg.Counter("advisor.eval_cache_misses").Add(int64(met.EvalCacheMisses))
	for k, n := range met.Dropped {
		if n > 0 {
			reg.Counter("advisor.dropped." + translate.UnsupportedKind(k).String()).Add(int64(n))
		}
	}
	reg.Gauge("advisor.last_duration_ms").Set(float64(met.Duration) / float64(time.Millisecond))
	reg.Gauge("advisor.last_est_cost").Set(cost)
	reg.Gauge("advisor.est_cost." + strings.ToLower(alg)).Set(cost)
}

// defaultConfig is Two-Step's phase-1 physical design guess: a
// clustered index on ID and a secondary index on PID for every
// relation (Section 5.1.1). Relation names are distinct, so the indexes
// are too and are appended without AddIndex's scan for a twin.
func defaultConfig(m *shred.Mapping) *physical.Config {
	cfg := &physical.Config{Indexes: make([]*physical.Index, 0, 2*len(m.Relations))}
	for _, r := range m.Relations {
		cfg.Indexes = append(cfg.Indexes,
			&physical.Index{Name: "pk_" + r.Name, Table: r.Name, Key: []string{rel.IDColumn}},
			&physical.Index{Name: "fk_" + r.Name, Table: r.Name, Key: []string{rel.PIDColumn}})
	}
	return cfg
}

// costUnder estimates the workload cost under defaultConfig (no
// tuning) — Two-Step's phase-1 cost oracle, the cache-miss path of
// costUnderDefault.
func (a *Advisor) costUnder(tree *schema.Tree, met *Metrics) (float64, error) {
	sp := a.Opts.Obs.StartSpan("advisor.cost-fixed")
	defer sp.End()
	ev, w, err := a.prepare(tree)
	if err != nil {
		return 0, err
	}
	opt := optimizer.New(ev.prov)
	total := 0.0
	cfg := defaultConfig(ev.mapping)
	for _, wq := range w {
		cost, err := opt.Cost(wq.Q, cfg)
		if err != nil {
			return 0, err
		}
		total += wq.Weight * cost
	}
	met.OptimizerCalls += opt.Calls()
	sp.SetAttr(obs.Float("cost", total))
	return total, nil
}
