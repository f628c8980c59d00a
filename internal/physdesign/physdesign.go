// Package physdesign is the automated physical design tool the search
// algorithms call as a black box — the stand-in for Microsoft SQL
// Server 2000's Index Tuning Wizard in the paper's architecture
// (Fig. 2). Given a weighted SQL workload, statistics, and a storage
// bound, it generates candidate indexes (selection, covering, join),
// materialized join views, and optionally vertical partitions, then
// greedily picks the best benefit-per-byte set that fits the bound,
// costing every step with what-if optimizer calls.
package physdesign

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// WeightedQuery pairs a translated SQL query with its workload weight.
type WeightedQuery struct {
	// Q is the translated sorted outer-union query.
	Q *sqlast.Query
	// Weight is the query's workload frequency f_i.
	Weight float64
	// Tag is an optional label (the source XPath) for reporting.
	Tag string
}

// Workload is a weighted SQL workload.
type Workload []WeightedQuery

// Options configures the tool.
type Options struct {
	// StorageBytes bounds the total size of recommended structures
	// (indexes plus views); 0 means unbounded.
	StorageBytes int64
	// DisableViews turns off materialized view candidates.
	DisableViews bool
	// EnableVPartitions adds vertical partition candidates (off by
	// default, like the Index Tuning Wizard; Section 3.1 shows they are
	// subsumed by covering indexes when space allows).
	EnableVPartitions bool
	// InsertRates gives the number of rows inserted per workload
	// execution, per table. Every structure on a table pays a
	// maintenance cost proportional to its insert rate, so
	// update-heavy workloads receive leaner configurations (the
	// paper's future-work extension).
	InsertRates map[string]float64
	// Obs, when non-nil, is the caller's tuner-call span; Tune reports
	// candidate counts, chosen structures, and optimizer effort on it.
	Obs *obs.Span
}

// Recommendation is the tool's output.
type Recommendation struct {
	// Config is the chosen configuration.
	Config *physical.Config
	// PerQuery are the estimated costs of each workload query under
	// Config, aligned with the input workload.
	PerQuery []float64
	// Plans are the corresponding plans (for cost derivation).
	Plans []*optimizer.Plan
	// TotalCost is the weighted workload cost under Config.
	TotalCost float64
	// StructBytes is the estimated size of the chosen structures.
	StructBytes int64
	// MaintenanceCost is the per-execution update maintenance cost of
	// the chosen structures (included in TotalCost).
	MaintenanceCost float64
	// OptimizerCalls is the number of what-if optimizer invocations.
	OptimizerCalls int64
}

// maintenancePerRow is the cost of keeping one structure current for
// one inserted row (an index insertion: a seek plus a tuple write).
const maintenancePerRow = optimizer.CostSeek + optimizer.CostTuple

// maintenanceCost returns the per-execution maintenance of a candidate
// under the insert rates.
func (c *candidate) maintenanceCost(rates map[string]float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	switch {
	case c.idx != nil:
		return rates[c.idx.Table] * maintenancePerRow
	case c.view != nil:
		// A view row is produced per inserted inner row; outer inserts
		// may also touch it.
		return (rates[c.view.Inner] + 0.5*rates[c.view.Outer]) * maintenancePerRow
	default:
		// Every partition group receives the key columns of each
		// inserted row.
		return rates[c.vpart.Table] * maintenancePerRow * float64(len(c.vpart.Groups))
	}
}

// defaultMaxCandidates bounds the candidate pool entering the greedy
// selection (after benefit-ranked prefiltering), and
// defaultMaxStructures bounds the configuration size. Both keep the
// tool's running time proportional to workload size rather than to the
// candidate blowup of heavily partitioned mappings.
const (
	defaultMaxCandidates = 48
	defaultMaxStructures = 32
)

// candidate is one structure under consideration.
type candidate struct {
	idx     *physical.Index
	view    *physical.View
	vpart   *physical.VPartition
	id      string   // the structure's ID(), the candidate's identity
	tables  []string // the structure's tables: only queries naming one can change plan
	bytes   int64
	origins []int // workload indices of the queries that generated it
	// added is the structure alone: what a what-if call passes Replan as
	// the added structures, and prefilterCandidates' whole trial.
	added *physical.Config
}

// addTo adds the structure to a configuration made of other candidates.
// Candidates are distinct by id (generateCandidates), so an index or
// view is appended without AddIndex/AddView's scan for a twin, which
// renders the ID of every structure already chosen on every trial.
func (c *candidate) addTo(cfg *physical.Config) bool {
	switch {
	case c.idx != nil:
		cfg.Indexes = append(cfg.Indexes, c.idx)
	case c.view != nil:
		cfg.Views = append(cfg.Views, c.view)
	default:
		return cfg.AddPartition(c.vpart)
	}
	return true
}

// Tune runs the tool over the workload.
func Tune(w Workload, prov stats.Provider, opts Options) (*Recommendation, error) {
	opt := optimizer.New(prov)
	cfg := &physical.Config{}
	// base are the workload's plans under the empty configuration, which
	// the final pass re-plans from. costs are the workload's estimates
	// under cfg, which every what-if trial starts from: a trial re-prices
	// the branches a candidate's structure can serve, and a query naming
	// none of its tables keeps its estimates without a call.
	base := make([]*optimizer.Plan, len(w))
	costs := make([]*optimizer.Costs, len(w))
	tables := make([][]string, len(w))
	for i, wq := range w {
		p, err := opt.PlanQuery(wq.Q, cfg)
		if err != nil {
			return nil, fmt.Errorf("physdesign: base cost of query %d: %w", i, err)
		}
		base[i], costs[i], tables[i] = p, p.Costs(), wq.Q.Tables()
	}
	cands := generateCandidates(w, prov, opts)
	cands = prefilterCandidates(cands, w, opt, costs, opts)
	// Lazy greedy selection, used as a heuristic: each round re-evaluates
	// only the candidate with the highest score, stale or fresh, until the
	// highest is fresh, and picks that one. Eager greedy, which
	// re-evaluates every candidate every round, would pick the same only
	// if no candidate's benefit rose as structures are added, and here
	// one can; TestTuneLazyAgainstEager reports how often the two differ.
	type scored struct {
		c     *candidate
		score float64
		round int
		costs []*optimizer.Costs // the workload's estimates with c added, as of round
	}
	// trial is cfg plus the candidate under evaluation, refilled for every
	// trial: a cost state keeps no configuration.
	trial := &physical.Config{}
	evaluate := func(c *candidate) (float64, []*optimizer.Costs, bool) {
		trial.Indexes = append(trial.Indexes[:0], cfg.Indexes...)
		trial.Views = append(trial.Views[:0], cfg.Views...)
		trial.Partitions = append(trial.Partitions[:0], cfg.Partitions...)
		if !c.addTo(trial) {
			return 0, nil, false
		}
		benefit := -c.maintenanceCost(opts.InsertRates)
		trialCosts, copied := costs, false // copied when the first estimate changes
		for i, wq := range w {
			if !intersects(tables[i], c.tables) {
				continue
			}
			e, err := opt.ReplanCosts(costs[i], trial, c.added)
			if err != nil {
				return 0, nil, false
			}
			benefit += wq.Weight * (costs[i].Cost - e.Cost)
			if e != costs[i] {
				if !copied {
					trialCosts, copied = slices.Clone(costs), true
				}
				trialCosts[i] = e
			}
		}
		return benefit, trialCosts, true
	}
	var pool []*scored
	for _, c := range cands {
		pool = append(pool, &scored{c: c, score: math.Inf(1), round: -1})
	}
	maxStructures := defaultMaxStructures
	for round := 0; round < maxStructures && len(pool) > 0; round++ {
		used := cfg.EstBytes(prov)
		selected := -1
		for {
			// Pick the highest stale-or-fresh score.
			best := -1
			for i, s := range pool {
				if s == nil {
					continue
				}
				if best < 0 || s.score > pool[best].score {
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
		s := pool[selected]
		s.c.addTo(cfg)
		costs = s.costs
		pool[selected] = nil
	}
	// Final pass: every query re-planned from its base plan under the
	// chosen configuration, one call each. By Replan's contract that is
	// PlanQuery(q, cfg) bit for bit, and it reuses the base plans'
	// analyses and the view rewrites memoized in them.
	total := 0.0
	perQuery := make([]float64, len(w))
	final := make([]*optimizer.Plan, len(w))
	for i, wq := range w {
		p, err := opt.Replan(base[i], cfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("physdesign: final cost of query %d: %w", i, err)
		}
		final[i] = p
		perQuery[i] = p.Cost
		total += wq.Weight * p.Cost
	}
	maint := configMaintenance(cfg, opts.InsertRates)
	opts.Obs.SetAttr(
		obs.Int("queries", int64(len(w))),
		obs.Int("candidates", int64(len(cands))),
		obs.Int("structures", int64(len(cfg.Indexes)+len(cfg.Views)+len(cfg.Partitions))),
		obs.Int("optimizer_calls", opt.Calls()),
		obs.Float("total_cost", total+maint))
	return &Recommendation{
		Config:          cfg,
		PerQuery:        perQuery,
		Plans:           final,
		TotalCost:       total + maint,
		StructBytes:     cfg.EstBytes(prov),
		MaintenanceCost: maint,
		OptimizerCalls:  opt.Calls(),
	}, nil
}

// configMaintenance sums the per-execution maintenance cost of every
// chosen structure.
func configMaintenance(cfg *physical.Config, rates map[string]float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	total := 0.0
	for _, idx := range cfg.Indexes {
		total += (&candidate{idx: idx}).maintenanceCost(rates)
	}
	for _, v := range cfg.Views {
		total += (&candidate{view: v}).maintenanceCost(rates)
	}
	for _, vp := range cfg.Partitions {
		total += (&candidate{vpart: vp}).maintenanceCost(rates)
	}
	return total
}

// intersects reports whether the two table lists share a table.
func intersects(a, b []string) bool {
	for _, t := range a {
		if containsStr(b, t) {
			return true
		}
	}
	return false
}

// generateCandidates derives candidate structures from the workload,
// recording which queries produced each candidate.
func generateCandidates(w Workload, prov stats.Provider, opts Options) []*candidate {
	cs := &candidateSet{prov: prov, opts: opts, seen: make(map[string]*candidate)}
	for i, wq := range w {
		cs.qi = i
		for _, s := range wq.Q.Branches {
			cs.branch(s)
		}
	}
	// Deterministic order helps reproducibility.
	sort.SliceStable(cs.out, func(i, j int) bool { return cs.out[i].id < cs.out[j].id })
	return cs.out
}

// candidateSet collects a workload's distinct candidates. A structure's
// ID is written into a scratch buffer and looked up before the structure
// is built, so a duplicate — most of what a workload's branches propose —
// is never built. An index's ID is written without building anything.
type candidateSet struct {
	prov stats.Provider
	opts Options
	seen map[string]*candidate
	out  []*candidate
	qi   int    // the workload query being generated from
	seq  int    // numbers index and view names; a duplicate advances it too
	id   []byte // the ID of the structure being proposed
}

// known reports whether the structure whose ID is in cs.id was proposed
// before, recording query qi as one more origin of it.
func (cs *candidateSet) known() bool {
	prev, ok := cs.seen[string(cs.id)]
	if ok {
		if last := len(prev.origins) - 1; prev.origins[last] != cs.qi {
			prev.origins = append(prev.origins, cs.qi)
		}
	}
	return ok
}

// add records a new candidate, whose ID is in cs.id.
func (cs *candidateSet) add(c *candidate) {
	c.id = string(cs.id)
	c.origins = []int{cs.qi}
	c.added = &physical.Config{}
	c.addTo(c.added)
	cs.seen[c.id] = c
	cs.out = append(cs.out, c)
}

// name returns the name of the structure numbered seq.
func (cs *candidateSet) name(prefix string) string {
	return prefix + "_" + strconv.Itoa(cs.seq)
}

// branch proposes the candidates of one branch.
func (cs *candidateSet) branch(s *sqlast.Select) {
	// columnsOf is s.ColumnsOf, computed once per table: index copies
	// what it keeps, and nothing writes to the lists, so they are shared.
	var colTables []string
	var colLists [][]string
	columnsOf := func(table string) []string {
		if i := slices.Index(colTables, table); i >= 0 {
			return colLists[i]
		}
		cols := s.ColumnsOf(table)
		colTables, colLists = append(colTables, table), append(colLists, cols)
		return cols
	}
	// Selection indexes: plain and covering.
	for _, p := range s.Where {
		if p.Kind != sqlast.PredCompare || p.Op == sqlast.OpNe {
			continue
		}
		t := p.Col.Table
		cs.index(t, p.Col.Column, nil)
		cs.index(t, p.Col.Column, columnsOf(t))
	}
	// Join and EXISTS probe indexes (plain and covering).
	for _, p := range s.Where {
		switch p.Kind {
		case sqlast.PredJoin:
			for _, side := range [2]sqlast.ColRef{p.Left, p.Right} {
				if side.Column == rel.PIDColumn {
					cs.index(side.Table, rel.PIDColumn, nil)
					cs.index(side.Table, rel.PIDColumn, columnsOf(side.Table))
				}
				if side.Column == rel.IDColumn {
					cs.index(side.Table, rel.IDColumn, nil)
				}
			}
		case sqlast.PredExists, sqlast.PredOrExists:
			cs.index(p.Table, p.JoinCol, []string{p.InnerCol})
		}
	}
	// Materialized join view for two-table branches.
	if !cs.opts.DisableViews && len(s.From) == 2 {
		if v, ok := joinViewCandidate(s, columnsOf); ok {
			cs.seq++
			cs.id = append(cs.id[:0], v.ID()...)
			if !cs.known() {
				view := v // v stays on the stack when it is a duplicate
				view.Name = cs.name("v_" + v.Outer)
				cs.add(&candidate{view: &view, tables: []string{v.Outer, v.Inner}, bytes: v.EstBytes(cs.prov)})
			}
		}
	}
	// Vertical partition: referenced columns vs the rest.
	if cs.opts.EnableVPartitions {
		for _, t := range s.From {
			ts := cs.prov.TableStats(t)
			if ts == nil {
				continue
			}
			refd := dedupe(columnsOf(t), []string{rel.IDColumn, rel.PIDColumn})
			var rest []string
			for c := range ts.Cols {
				if c == rel.IDColumn || c == rel.PIDColumn || containsStr(refd, c) {
					continue
				}
				rest = append(rest, c)
			}
			sort.Strings(rest)
			if len(refd) == 0 || len(rest) == 0 {
				continue
			}
			vp := &physical.VPartition{Table: t, Groups: [][]string{refd, rest}}
			cs.id = append(cs.id[:0], vp.ID()...)
			if !cs.known() {
				cs.add(&candidate{vpart: vp, tables: []string{t}, bytes: vp.EstBytes(ts) - ts.Bytes()})
			}
		}
	}
}

// index proposes an index on table keyed by key and including the
// columns of include other than key; include is sorted and unique, as
// ColumnsOf returns columns.
func (cs *candidateSet) index(table, key string, include []string) {
	ts := cs.prov.TableStats(table)
	if ts == nil {
		return
	}
	cs.seq++
	cs.id = appendIndexID(cs.id[:0], table, key, include)
	if cs.known() {
		return
	}
	var inc []string
	for _, c := range include {
		if c != key {
			inc = append(inc, c)
		}
	}
	idx := &physical.Index{Name: cs.name("ix_" + table), Table: table, Key: []string{key}, Include: inc}
	cs.add(&candidate{idx: idx, tables: []string{table}, bytes: idx.EstBytes(ts)})
}

// appendIndexID appends to b the Index.ID of the index index proposes,
// which TestCandidatesMatchBuildThenDedupe holds to Index.ID.
func appendIndexID(b []byte, table, key string, include []string) []byte {
	b = append(b, "idx:"...)
	b = append(b, table...)
	b = append(b, '(')
	b = append(b, key...)
	b = append(b, ")inc("...)
	first := true
	for _, c := range include {
		if c == key {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		b, first = append(b, c...), false
	}
	return append(b, ')')
}

// prefilterCandidates ranks candidates by their benefit on the queries
// that generated them (one cheap what-if each) and keeps the top
// MaxCandidates, so heavily partitioned mappings with hundreds of
// near-duplicate candidates stay tractable. base are the workload's
// estimates under the empty configuration.
func prefilterCandidates(cands []*candidate, w Workload, opt *optimizer.Optimizer,
	base []*optimizer.Costs, opts Options) []*candidate {
	limit := defaultMaxCandidates
	if len(cands) <= limit {
		return cands
	}
	type ranked struct {
		c     *candidate
		score float64
	}
	rs := make([]ranked, 0, len(cands))
	for _, c := range cands {
		// The base estimates are of the empty configuration, so the trial
		// is the structure alone.
		benefit := -c.maintenanceCost(opts.InsertRates)
		for _, qi := range c.origins {
			e, err := opt.ReplanCosts(base[qi], c.added, c.added)
			if err != nil {
				continue
			}
			benefit += w[qi].Weight * (base[qi].Cost - e.Cost)
		}
		if benefit <= 0 {
			continue
		}
		rs = append(rs, ranked{c, benefit / math.Max(float64(c.bytes), 1)})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].score > rs[j].score })
	if len(rs) > limit {
		rs = rs[:limit]
	}
	out := make([]*candidate, len(rs))
	for i, r := range rs {
		out[i] = r.c
	}
	return out
}

// joinViewCandidate is the parent-child join view matching the branch,
// unnamed: over its first PID = ID join, the outer side's columns plus ID
// and the inner side's columns, sorted. columnsOf is the branch's
// ColumnsOf.
func joinViewCandidate(s *sqlast.Select, columnsOf func(string) []string) (physical.View, bool) {
	for _, p := range s.Where {
		if p.Kind != sqlast.PredJoin {
			continue
		}
		l, r := p.Left, p.Right
		if l.Column == rel.IDColumn && r.Column == rel.PIDColumn {
			l, r = r, l
		}
		if l.Column != rel.PIDColumn || r.Column != rel.IDColumn {
			continue
		}
		inner, outer := l.Table, r.Table
		oc := columnsOf(outer)
		if !containsStr(oc, rel.IDColumn) {
			oc = append(slices.Clone(oc), rel.IDColumn)
			sort.Strings(oc)
		}
		return physical.View{Outer: outer, Inner: inner, OuterCols: oc, InnerCols: columnsOf(inner)}, true
	}
	return physical.View{}, false
}

func dedupe(cols, minus []string) []string {
	var out []string
	for _, c := range cols {
		if !containsStr(minus, c) && !containsStr(out, c) {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
