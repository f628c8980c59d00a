package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/transform"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmlgen"
)

// The reference planner: the planner as it stood before branches were
// analysed once — every left-deep order materialized by permutations and
// planned from the SQL with a joined-set map, views rewritten per call
// by the reference rewrite. It shares only the per-table costing
// (bestTableAccess, bestJoin, applyExists) with the planner under test,
// fed from ColumnsOf and localRows directly, so it pins order sequence,
// tie-breaks, join predicate choice and the float operations of the
// sums.

// refRewriteOverView is RewriteOverView as it stood before it decided
// whether a view applies ahead of allocating: it maps and appends item
// by item and predicate by predicate, and gives up at the first column
// the view does not carry.
func refRewriteOverView(s *sqlast.Select, v *physical.View) (*sqlast.Select, bool) {
	if len(s.From) != 2 {
		return nil, false
	}
	hasOuter, hasInner := false, false
	for _, t := range s.From {
		if t == v.Outer {
			hasOuter = true
		}
		if t == v.Inner {
			hasInner = true
		}
	}
	if !hasOuter || !hasInner {
		return nil, false
	}
	joinOK := false
	for _, p := range s.Where {
		if p.Kind != sqlast.PredJoin {
			continue
		}
		l, r := p.Left, p.Right
		if l.Table == v.Outer {
			l, r = r, l
		}
		if l.Table == v.Inner && l.Column == rel.PIDColumn && r.Table == v.Outer && r.Column == rel.IDColumn {
			joinOK = true
		}
	}
	if !joinOK {
		return nil, false
	}
	mapCol := func(c sqlast.ColRef) (sqlast.ColRef, bool) {
		if c.Table != v.Outer && c.Table != v.Inner {
			return c, true
		}
		vc := v.ViewColumn(c.Table, c.Column)
		if vc == "" {
			return c, false
		}
		return sqlast.ColRef{Table: v.Name, Column: vc}, true
	}
	out := &sqlast.Select{From: []string{v.Name}}
	for _, it := range s.Items {
		ni := it
		if it.Col != nil {
			c, ok := mapCol(*it.Col)
			if !ok {
				return nil, false
			}
			ni.Col = &c
		}
		out.Items = append(out.Items, ni)
	}
	for _, p := range s.Where {
		np := p
		switch p.Kind {
		case sqlast.PredJoin:
			continue
		case sqlast.PredCompare:
			c, ok := mapCol(p.Col)
			if !ok {
				return nil, false
			}
			np.Col = c
		case sqlast.PredExists, sqlast.PredOrExists:
			c, ok := mapCol(p.OuterCol)
			if !ok {
				return nil, false
			}
			np.OuterCol = c
			np.Cols = nil
			for _, oc := range p.Cols {
				nc, ok := mapCol(oc)
				if !ok {
					return nil, false
				}
				np.Cols = append(np.Cols, nc)
			}
		}
		out.Where = append(out.Where, np)
	}
	return out, true
}

func permutations(items []string) [][]string {
	if len(items) <= 1 {
		return [][]string{append([]string(nil), items...)}
	}
	var out [][]string
	for i := range items {
		rest := make([]string, 0, len(items)-1)
		rest = append(rest, items[:i]...)
		rest = append(rest, items[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{items[i]}, p...))
		}
	}
	return out
}

func refFindJoinPred(s *sqlast.Select, joined map[string]bool, t string) (sqlast.Pred, bool) {
	for _, p := range s.Where {
		if p.Kind != sqlast.PredJoin {
			continue
		}
		if joined[p.Left.Table] && p.Right.Table == t {
			return p, true
		}
		if joined[p.Right.Table] && p.Left.Table == t {
			return sqlast.Pred{Kind: sqlast.PredJoin, Left: p.Right, Right: p.Left}, true
		}
	}
	return sqlast.Pred{}, false
}

func (o *Optimizer) refTable(s *sqlast.Select, t string) (*fromTable, bool) {
	ts := o.Provider.TableStats(t)
	if ts == nil {
		return nil, false
	}
	rows, _ := o.localRows(s, t, ts, nil)
	return &fromTable{name: t, ts: ts, needed: s.ColumnsOf(t), rows: rows}, true
}

func (o *Optimizer) refPlanOrder(s *sqlast.Select, order []string, cfg *physical.Config) (*Branch, bool) {
	ft, ok := o.refTable(s, order[0])
	if !ok {
		return nil, false
	}
	acc := o.bestTableAccess(s, ft, cfg)
	b := &Branch{Sel: s, Driver: acc, Rows: acc.Rows, Cost: acc.Cost}
	joined := map[string]bool{order[0]: true}
	for _, t := range order[1:] {
		jp, ok := refFindJoinPred(s, joined, t)
		if !ok {
			return nil, false
		}
		outerCol, innerCol := jp.Left, jp.Right
		if innerCol.Table != t {
			outerCol, innerCol = jp.Right, jp.Left
		}
		ft, ok := o.refTable(s, t)
		if !ok {
			return nil, false
		}
		j := o.bestJoin(ft, cfg, b.Rows, outerCol, innerCol)
		b.Joins = append(b.Joins, j)
		b.Rows = j.Rows
		b.Cost += j.Cost
		joined[t] = true
	}
	rows, ecost, err := o.applyExists(s, b.Rows, cfg)
	if err != nil {
		return nil, false
	}
	b.Rows = rows
	b.Cost += ecost + rows*CostTuple
	return b, true
}

func (o *Optimizer) refPlanBranch(s *sqlast.Select, cfg *physical.Config) (*Branch, error) {
	var best *Branch
	for _, perm := range permutations(s.From) {
		if b, ok := o.refPlanOrder(s, perm, cfg); ok && (best == nil || b.Cost < best.Cost) {
			best = b
		}
	}
	if best == nil {
		return nil, fmt.Errorf("reference: no joinable order for branch %s", s.SQL())
	}
	for _, v := range cfg.Views {
		rs, ok := refRewriteOverView(s, v)
		if !ok {
			continue
		}
		ts := v.Stats(o.Provider)
		acc := o.scanAccess(v.Name, ts, nil)
		rows, _ := o.localRows(rs, v.Name, ts, nil)
		acc.Rows = rows
		cost := acc.Cost
		rows, ecost, err := o.applyExists(rs, rows, cfg)
		if err != nil {
			return nil, err
		}
		cost += ecost + rows*CostTuple
		if cost < best.Cost {
			best = &Branch{Sel: rs, View: v, Driver: acc, Rows: rows, Cost: cost}
		}
	}
	return best, nil
}

func (o *Optimizer) refPlanQuery(q *sqlast.Query, cfg *physical.Config) (*Plan, error) {
	plan := &Plan{Query: q}
	for _, s := range q.Branches {
		b, err := o.refPlanBranch(s, cfg)
		if err != nil {
			return nil, err
		}
		plan.Branches = append(plan.Branches, b)
		plan.Rows += b.Rows
		plan.Cost += b.Cost + CostBranch
	}
	if q.OrderBy != "" && plan.Rows > 1 {
		plan.Cost += plan.Rows * math.Log2(plan.Rows+2) * CostSortTuple
	}
	return plan, nil
}

// samePlan fails unless the two plans are the same plan to the bit.
func samePlan(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.Cost) != bits(want.Cost) || bits(got.Rows) != bits(want.Rows) {
		t.Errorf("%s: cost/rows %x/%x, want %x/%x", label, bits(got.Cost), bits(got.Rows), bits(want.Cost), bits(want.Rows))
	}
	if len(got.Branches) != len(want.Branches) {
		t.Fatalf("%s: %d branches, want %d", label, len(got.Branches), len(want.Branches))
	}
	for i, b := range got.Branches {
		if w := want.Branches[i]; bits(b.Cost) != bits(w.Cost) || bits(b.Rows) != bits(w.Rows) || b.View != w.View {
			t.Errorf("%s: branch %d cost/rows/view %x/%x/%v, want %x/%x/%v", label, i,
				bits(b.Cost), bits(b.Rows), b.View, bits(w.Cost), bits(w.Rows), w.View)
		}
	}
	if g, w := got.Explain(), want.Explain(); g != w {
		t.Errorf("%s: Explain differs:\n%s\nwant:\n%s", label, g, w)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("%s: Fingerprint differs", label)
	}
	if g, w := strings.Join(got.Objects(), " "), strings.Join(want.Objects(), " "); g != w {
		t.Errorf("%s: Objects %s, want %s", label, g, w)
	}
}

// structure is one physical structure with the tables it is on.
type structure struct {
	idx    *physical.Index
	view   *physical.View
	vpart  *physical.VPartition
	tables []string
}

// with returns cfg plus the structure, or nil when cfg cannot take it
// (a second partition of one table).
func (st structure) with(cfg *physical.Config) *physical.Config {
	out := cfg.Clone()
	switch {
	case st.idx != nil:
		out.Indexes = append(out.Indexes, st.idx)
	case st.view != nil:
		out.Views = append(out.Views, st.view)
	case !out.AddPartition(st.vpart):
		return nil
	}
	return out
}

// added returns the structure alone as a configuration: ReplanCosts'
// added.
func (st structure) added() *physical.Config { return st.with(&physical.Config{}) }

// touches reports whether the analysed branch's table set (FROM plus
// EXISTS tables) holds one of the structure's tables: what the
// query-level filter and the gate before this one let through.
func (st structure) touches(an *analysis) bool {
	for _, t := range an.sel.Tables() {
		for _, u := range st.tables {
			if t == u {
				return true
			}
		}
	}
	return false
}

// branchStructures lists the structures a tuner would try for a branch:
// plain and covering indexes on predicate, join and EXISTS columns, the
// join view of a two-table branch, a referenced/rest partition of every
// FROM table.
func branchStructures(s *sqlast.Select, prov stats.Provider, seq *int) []structure {
	var out []structure
	name := func(prefix string) string { *seq++; return fmt.Sprintf("%s_%d", prefix, *seq) }
	index := func(table, key string, include []string) {
		out = append(out, structure{tables: []string{table},
			idx: &physical.Index{Name: name("ix_" + table), Table: table, Key: []string{key}, Include: include}})
	}
	for _, p := range s.Where {
		switch p.Kind {
		case sqlast.PredCompare:
			index(p.Col.Table, p.Col.Column, nil)
			index(p.Col.Table, p.Col.Column, s.ColumnsOf(p.Col.Table))
		case sqlast.PredJoin:
			for _, side := range []sqlast.ColRef{p.Left, p.Right} {
				index(side.Table, side.Column, nil)
				index(side.Table, side.Column, s.ColumnsOf(side.Table))
			}
			if len(s.From) == 2 {
				l, r := p.Left, p.Right
				if l.Column == rel.IDColumn {
					l, r = r, l
				}
				if l.Column == rel.PIDColumn && r.Column == rel.IDColumn {
					out = append(out, structure{tables: []string{r.Table, l.Table}, view: &physical.View{
						Name: name("v_" + r.Table), Outer: r.Table, Inner: l.Table,
						OuterCols: s.ColumnsOf(r.Table), InnerCols: s.ColumnsOf(l.Table)}})
				}
			}
		case sqlast.PredExists, sqlast.PredOrExists:
			index(p.Table, p.JoinCol, nil)
		}
	}
	for _, t := range s.From {
		ts := prov.TableStats(t)
		if ts == nil {
			continue
		}
		refd := s.ColumnsOf(t)
		var rest []string
		for c := range ts.Cols {
			if i := sort.SearchStrings(refd, c); i == len(refd) || refd[i] != c {
				rest = append(rest, c)
			}
		}
		sort.Strings(rest)
		if len(rest) > 0 {
			out = append(out, structure{tables: []string{t}, vpart: &physical.VPartition{Table: t, Groups: [][]string{refd, rest}}})
		}
	}
	return out
}

// fig5Fixture translates the four Fig. 5 workload classes under the
// hybrid mapping and three randomly transformed ones.
func fig5Fixture(t *testing.T) (provs []stats.Provider, queries [][]*sqlast.Query) {
	t.Helper()
	base := schema.DBLP()
	doc := xmlgen.GenerateDBLP(base, xmlgen.DBLPOptions{Inproceedings: 1500, Books: 150, Seed: 72})
	col := xmlgen.CollectStats(base, doc)
	var xps []*workload.Workload
	for _, p := range workload.StandardParams(6, 11) {
		w, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatal(err)
		}
		xps = append(xps, w)
	}
	r := rand.New(rand.NewSource(5))
	trees := []*schema.Tree{base}
	for len(trees) < 4 {
		tree := base
		for step := 0; step < 4; step++ {
			ts := transform.EnumerateNonSubsumed(tree, col)
			if next, err := ts[r.Intn(len(ts))].Apply(tree); err == nil {
				tree = next
			}
		}
		trees = append(trees, tree)
	}
	for _, tree := range trees {
		m, err := shred.Compile(tree)
		if err != nil {
			t.Fatal(err)
		}
		var qs []*sqlast.Query
		for _, w := range xps {
			for _, wq := range w.Queries {
				q, err := translate.Translate(m, wq.XPath)
				if err != nil {
					t.Fatalf("%s: %v", wq.XPath, err)
				}
				qs = append(qs, q)
			}
		}
		provs = append(provs, shred.DeriveStats(m, col))
		queries = append(queries, qs)
	}
	return provs, queries
}

// growthWalk grows a configuration one random structure at a time from
// the structures of the queries' branches, seeded by the mapping index,
// and calls visit after every step with the grown configuration and the
// structure alone as a configuration (what ReplanCosts takes as added).
func growthWalk(mi int, prov stats.Provider, queries []*sqlast.Query, visit func(step int, st structure, cfg, added *physical.Config)) {
	seq := 0
	var pool []structure
	for _, q := range queries {
		for _, s := range q.Branches {
			pool = append(pool, branchStructures(s, prov, &seq)...)
		}
	}
	r := rand.New(rand.NewSource(int64(mi) + 1))
	cfg := &physical.Config{}
	for step := 0; step < 40; step++ {
		st := pool[r.Intn(len(pool))]
		// Partitions come last: a partitioned table takes no index, so
		// early ones would leave seeks and INL joins unexercised.
		if st.vpart != nil && step < 30 {
			continue
		}
		next := st.with(cfg)
		if next == nil {
			continue
		}
		cfg = next
		visit(step, st, cfg, st.added())
	}
}

// basePlans plans every query under the empty configuration.
func basePlans(t *testing.T, o *Optimizer, queries []*sqlast.Query) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		var err error
		if plans[i], err = o.PlanQuery(q, &physical.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	return plans
}

// TestReplanMatchesPlanQuery grows configurations one random structure
// at a time and after every step checks, for every query, the cost state
// ReplanCosts chains from the previous step's, and the plan PlanFrom
// builds from that state, against the plan PlanQuery builds from nothing
// and the reference planner's, to the bit, each counting one call. The
// walk must re-price branches whose estimates change and branches whose
// estimates come out the same, keep branches on the structure's tables
// that it cannot serve (the gate), hand back the previous state itself
// exactly when no estimate changes, and have PlanFrom answer a branch
// from a view through a rewrite memoized at an earlier step.
func TestReplanMatchesPlanQuery(t *testing.T) {
	provs, queries := fig5Fixture(t)
	for mi, prov := range provs {
		o := New(prov)
		chain := make([]*Costs, len(queries[mi]))
		for i, p := range basePlans(t, o, queries[mi]) {
			chain[i] = p.Costs()
		}
		changed, same, gated, kept, reused := 0, 0, 0, 0, 0
		growthWalk(mi, prov, queries[mi], func(step int, st structure, cfg, added *physical.Config) {
			for i, q := range queries[mi] {
				label := fmt.Sprintf("mapping %d step %d query %d", mi, step, i)
				prev := chain[i]
				// The rewrite memo is append-only: its first memoized[bi]
				// entries were recorded at earlier steps.
				memoized := make([]int, len(prev.branches))
				served := make([]bool, len(prev.branches))
				for bi, b := range prev.branches {
					memoized[bi] = len(b.an.rewrites)
					served[bi] = o.serves(b.an, added)
				}
				calls := o.Calls()
				next, err := o.ReplanCosts(nil, prev, cfg, added)
				if err != nil {
					t.Fatalf("%s: ReplanCosts: %v", label, err)
				}
				plan, err := o.PlanFrom(next, cfg)
				if err != nil {
					t.Fatalf("%s: PlanFrom: %v", label, err)
				}
				if d := o.Calls() - calls; d != 2 {
					t.Errorf("%s: ReplanCosts + PlanFrom counted %d calls, want 2", label, d)
				}
				full, err := o.PlanQuery(q, cfg)
				if err != nil {
					t.Fatalf("%s: PlanQuery: %v", label, err)
				}
				ref, err := o.refPlanQuery(q, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				sameEstimates(t, label+" ReplanCosts vs PlanQuery", next, full)
				sameEstimates(t, label+" ReplanCosts vs reference", next, ref)
				samePlan(t, label+" PlanFrom vs PlanQuery", plan, full)
				samePlan(t, label+" PlanFrom vs reference", plan, ref)
				moved := false
				for bi, b := range next.branches {
					old := prev.branches[bi]
					if b.an != old.an || plan.Branches[bi].an != old.an {
						t.Errorf("%s: branch %d is not priced and planned from the carried analysis", label, bi)
					}
					switch m := !sameFloat(b.rows, old.rows) || !sameFloat(b.cost, old.cost); {
					case !served[bi] && m:
						t.Errorf("%s: branch %d was re-priced though the structure cannot serve it", label, bi)
					case !served[bi] && st.touches(old.an):
						gated++
					case served[bi] && m:
						changed++
						moved = true
					case served[bi]:
						same++
					}
				}
				if (next != prev) != moved {
					t.Errorf("%s: an estimate moved %v, but ReplanCosts returned a new state %v", label, moved, next != prev)
				}
				if next == prev {
					kept++
				}
				for bi, b := range plan.Branches {
					if b.View == nil {
						continue
					}
					for _, r := range b.an.rewrites[:memoized[bi]] {
						if r.view != b.View {
							continue
						}
						if b.Sel != r.sel {
							t.Errorf("%s: branch %d is answered from %s but not through its memoized rewrite", label, bi, b.View.Name)
						}
						reused++
					}
				}
				chain[i] = next
			}
			if t.Failed() {
				t.FailNow()
			}
		})
		t.Logf("mapping %d: %d branches re-priced to new estimates, %d to the same, %d gated; %d calls kept the state; %d view plans read an earlier step's rewrite",
			mi, changed, same, gated, kept, reused)
		if changed == 0 || same == 0 || gated == 0 || kept == 0 || reused == 0 {
			t.Errorf("mapping %d: the walk must re-price branches to new and to the same estimates, gate branches on the structure's tables, keep a state and reuse a memoized view rewrite", mi)
		}
	}
}

// sameEstimates fails unless the cost state holds the plan's estimates
// to the bit: query, totals, and every branch's rows and cost.
func sameEstimates(t *testing.T, label string, got *Costs, want *Plan) {
	t.Helper()
	bits := math.Float64bits
	if got.Query != want.Query || bits(got.Cost) != bits(want.Cost) || bits(got.Rows) != bits(want.Rows) {
		t.Errorf("%s: cost/rows %x/%x, want %x/%x", label, bits(got.Cost), bits(got.Rows), bits(want.Cost), bits(want.Rows))
	}
	if len(got.branches) != len(want.Branches) {
		t.Fatalf("%s: %d branches, want %d", label, len(got.branches), len(want.Branches))
	}
	for i, b := range got.branches {
		if w := want.Branches[i]; bits(b.rows) != bits(w.Rows) || bits(b.cost) != bits(w.Cost) {
			t.Errorf("%s: branch %d rows/cost %x/%x, want %x/%x", label, i, bits(b.rows), bits(b.cost), bits(w.Rows), bits(w.Cost))
		}
	}
}

// sameCosts fails unless the two cost states are the same to the bit:
// query, totals, and every branch's analysis and estimates.
func sameCosts(t *testing.T, label string, got, want *Costs) {
	t.Helper()
	bits := math.Float64bits
	if got.Query != want.Query || bits(got.Cost) != bits(want.Cost) || bits(got.Rows) != bits(want.Rows) {
		t.Errorf("%s: cost/rows %x/%x, want %x/%x", label, bits(got.Cost), bits(got.Rows), bits(want.Cost), bits(want.Rows))
	}
	if len(got.branches) != len(want.branches) {
		t.Fatalf("%s: %d branches, want %d", label, len(got.branches), len(want.branches))
	}
	for i, b := range got.branches {
		if w := want.branches[i]; b.an != w.an || bits(b.rows) != bits(w.rows) || bits(b.cost) != bits(w.cost) {
			t.Errorf("%s: branch %d rows/cost %x/%x, want %x/%x", label, i, bits(b.rows), bits(b.cost), bits(w.rows), bits(w.cost))
		}
	}
}

// TestReplanCostsMatchesReplan walks TestReplanMatchesPlanQuery's growth
// re-planning each query the incremental way: ReplanCosts from the
// previous step's plan's estimates, then PlanFrom of the result. After
// every step it requires, for every query, that ReplanCosts started from
// Plan.Costs of that plan counts one call and holds the estimates of
// PlanQuery under the grown configuration, to the bit, and that a chain
// of ReplanCosts calls from the base plans' estimates, which is how Tune
// uses it, is the same state, analyses included. When no estimate
// changes, ReplanCosts must return the state it was given.
func TestReplanCostsMatchesReplan(t *testing.T) {
	provs, queries := fig5Fixture(t)
	for mi, prov := range provs {
		o := New(prov)
		prev := basePlans(t, o, queries[mi])
		chain := make([]*Costs, len(prev))
		for i, p := range prev {
			chain[i] = p.Costs()
		}
		kept, changed := 0, 0
		growthWalk(mi, prov, queries[mi], func(step int, _ structure, cfg, added *physical.Config) {
			for i, q := range queries[mi] {
				label := fmt.Sprintf("mapping %d step %d query %d", mi, step, i)
				from := prev[i].Costs()
				calls := o.Calls()
				got, err := o.ReplanCosts(nil, from, cfg, added)
				if err != nil {
					t.Fatalf("%s: ReplanCosts: %v", label, err)
				}
				if d := o.Calls() - calls; d != 1 {
					t.Errorf("%s: ReplanCosts counted %d calls, want 1", label, d)
				}
				full, err := o.PlanQuery(q, cfg)
				if err != nil {
					t.Fatalf("%s: PlanQuery: %v", label, err)
				}
				sameEstimates(t, label+" ReplanCosts vs PlanQuery", got, full)
				if chain[i], err = o.ReplanCosts(nil, chain[i], cfg, added); err != nil {
					t.Fatalf("%s: chained ReplanCosts: %v", label, err)
				}
				sameCosts(t, label+" chained ReplanCosts vs ReplanCosts from the plan", chain[i], got)
				moved := false
				for bi, b := range got.branches {
					if w := prev[i].Branches[bi]; !sameFloat(b.rows, w.Rows) || !sameFloat(b.cost, w.Cost) {
						moved = true
					}
				}
				switch {
				case !moved:
					if got != from {
						t.Errorf("%s: no estimate changed, but ReplanCosts returned a new Costs", label)
					}
					kept++
				case got != from:
					changed++
				default:
					t.Errorf("%s: an estimate changed, but ReplanCosts returned the state it was given", label)
				}
				if prev[i], err = o.PlanFrom(got, cfg); err != nil {
					t.Fatalf("%s: PlanFrom: %v", label, err)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		})
		t.Logf("mapping %d: %d calls kept every estimate, %d changed one", mi, kept, changed)
		if kept == 0 || changed == 0 {
			t.Errorf("mapping %d: %d calls kept every estimate, %d changed one; the walk must do both", mi, kept, changed)
		}
	}
}

// caseStats is movie → actor → award with a second child of movie.
func caseStats() stats.MapProvider {
	p := fakeStats()
	intCol := func(count, distinct int64) *stats.ColumnStats {
		return &stats.ColumnStats{Count: count, Distinct: distinct, AvgWidth: 8, Typ: rel.TInt,
			Min: rel.Int(0), Max: rel.Int(distinct)}
	}
	p["award"] = &stats.TableStats{Name: "award", Rows: 5000, RowBytes: 30, Cols: map[string]*stats.ColumnStats{
		"ID": intCol(5000, 5000), "PID": intCol(5000, 3000), "prize": intCol(5000, 40)}}
	return p
}

func col(t, c string) sqlast.ColRef { return sqlast.ColRef{Table: t, Column: c} }

func joinPred(child, parent string) sqlast.Pred {
	return sqlast.Pred{Kind: sqlast.PredJoin, Left: col(child, "PID"), Right: col(parent, "ID")}
}

// TestReplanCases walks hand-built branches through the configurations
// that exercise one planner rule each, chaining ReplanCosts and planning
// each step's state with PlanFrom.
func TestReplanCases(t *testing.T) {
	exists := selectMovie(sqlast.Pred{Kind: sqlast.PredExists, Op: sqlast.OpEq, Value: rel.Str("x"),
		Table: "actor", JoinCol: "PID", InnerCol: "actor", OuterCol: col("movie", "ID")})
	orExists := selectMovie(sqlast.Pred{Kind: sqlast.PredOrExists, Op: sqlast.OpEq, Value: rel.Str("x"),
		Cols: []sqlast.ColRef{col("movie", "title")}, Table: "actor", JoinCol: "PID", InnerCol: "actor",
		OuterCol: col("movie", "ID")})
	q := &sqlast.Query{OrderBy: "ID", Branches: []*sqlast.Select{
		exists, orExists, joinBranch(), selectMovie()}}
	view := func(name string) *physical.View {
		return &physical.View{Name: name, Outer: "movie", Inner: "actor",
			OuterCols: []string{"ID", "genre"}, InnerCols: []string{"PID", "actor"}}
	}
	v1, v2 := view("v1"), view("v2")
	steps := []struct {
		name string
		st   structure
		// serves lists the branches the structure serves: the ones the
		// step re-prices.
		serves []int
	}{
		{"index under EXISTS only", structure{tables: []string{"actor"},
			idx: &physical.Index{Name: "a_pid", Table: "actor", Key: []string{"PID"}}}, []int{0, 1, 2}},
		{"index no predicate probes", structure{tables: []string{"movie"},
			idx: &physical.Index{Name: "m_year", Table: "movie", Key: []string{"year"}}}, nil},
		{"first of two equal views", structure{tables: []string{"movie", "actor"}, view: v1}, []int{2}},
		{"second of two equal views", structure{tables: []string{"movie", "actor"}, view: v2}, []int{2}},
		{"partitioned driver", structure{tables: []string{"movie"},
			vpart: &physical.VPartition{Table: "movie", Groups: [][]string{{"title"}, {"year", "genre"}}}}, []int{0, 1, 2, 3}},
	}
	o := New(caseStats())
	cfg := &physical.Config{}
	plan, err := o.PlanQuery(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := plan.Costs()
	gated := 0
	for _, step := range steps {
		cfg = step.st.with(cfg)
		added := step.st.added()
		for bi, b := range prev.branches {
			want := slices.Contains(step.serves, bi)
			if got := o.serves(b.an, added); got != want {
				t.Errorf("%s: branch %d served %v, want %v", step.name, bi, got, want)
			}
			if !want && step.st.touches(b.an) {
				gated++
			}
		}
		next, err := o.ReplanCosts(nil, prev, cfg, added)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if plan, err = o.PlanFrom(next, cfg); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		full, err := o.PlanQuery(q, cfg)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		ref, err := o.refPlanQuery(q, cfg)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sameEstimates(t, step.name+": ReplanCosts vs PlanQuery", next, full)
		samePlan(t, step.name+": PlanFrom vs PlanQuery", plan, full)
		samePlan(t, step.name+": PlanQuery vs reference", full, ref)
		// v2 ties v1 and loses: branch 2, the only one it serves, keeps its
		// estimates, so the state is prev itself.
		if step.st.view == v2 && next != prev {
			t.Errorf("%s: no estimate changed, but ReplanCosts returned a new state", step.name)
		}
		prev = next
	}
	if gated == 0 {
		t.Error("no branch on a step's tables was kept by the gate")
	}
	if got := plan.Branches[2].View; got != v1 {
		t.Errorf("equal-cost views: branch answered from %v, want v1, the first in cfg.Views", got)
	}
	if len(plan.Branches[3].Driver.Groups) == 0 {
		t.Errorf("partitioned driver not planned as a partition scan: %+v", plan.Branches[3].Driver)
	}
	// The views the other way round: still the first wins.
	swapped := cfg.Clone()
	swapped.Views = []*physical.View{v2, v1}
	p, err := o.PlanQuery(q, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if p.Branches[2].View != v2 {
		t.Errorf("equal-cost views swapped: branch answered from %v, want v2", p.Branches[2].View)
	}
}

// TestReplanCostsUntouchedAllocatesNothing pins what a cost-only
// what-if call allocates: nothing when it changes no estimate, whether
// the serve rule skips every branch or every served branch's re-plan
// loses, and two objects (the Costs and its branch slice) when it
// changes one branch's estimates.
func TestReplanCostsUntouchedAllocatesNothing(t *testing.T) {
	o := New(caseStats())
	// year >= 0 matches every movie, and a genre matches one in 20, so a
	// non-covering seek on year or genre loses to the scan.
	unselective := sqlast.Pred{Kind: sqlast.PredCompare, Op: sqlast.OpGe, Col: col("movie", "year"), Value: rel.Int(0)}
	q := &sqlast.Query{OrderBy: "ID", Branches: []*sqlast.Select{selectMovie(unselective), joinBranch()}}
	p, err := o.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Costs()
	for _, tc := range []struct {
		name    string
		cfg     *physical.Config
		served  int
		changed bool
		allocs  float64
	}{
		{"no branch served", &physical.Config{Indexes: []*physical.Index{
			{Name: "w", Table: "award", Key: []string{"PID"}}}}, 0, false, 0},
		{"every re-plan loses", &physical.Config{Indexes: []*physical.Index{
			{Name: "m_year", Table: "movie", Key: []string{"year"}},
			{Name: "m_genre", Table: "movie", Key: []string{"genre"}}}}, 2, false, 0},
		{"one branch changes", &physical.Config{Indexes: []*physical.Index{
			{Name: "a_pid", Table: "actor", Key: []string{"PID"}, Include: []string{"actor"}}}}, 1, true, 2},
	} {
		served := 0
		for _, b := range p.Branches {
			if o.serves(b.an, tc.cfg) {
				served++
			}
		}
		if served != tc.served {
			t.Fatalf("%s: %d branches served, want %d", tc.name, served, tc.served)
		}
		got, err := o.ReplanCosts(nil, prev, tc.cfg, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (got != prev) != tc.changed {
			t.Fatalf("%s: estimates changed %v, want %v", tc.name, got != prev, tc.changed)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := o.ReplanCosts(nil, prev, tc.cfg, tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.allocs {
			t.Errorf("%s: ReplanCosts allocates %v objects, want %v", tc.name, allocs, tc.allocs)
		}
	}
}

// snapshot copies a cost state, branch slice included, so a later
// sameCosts can tell whether anything wrote the original.
func snapshot(c *Costs) *Costs {
	cp := *c
	cp.branches = slices.Clone(c.branches)
	return &cp
}

// TestReplanCostsWritesOwnedState walks TestReplanCostsMatchesReplan's
// growth, pricing every query at every step three ways from Plan.Costs
// of the previous step's plan: into a nil dst, into one scratch dst that
// every call of the walk shares (queries of different branch counts
// included), and with dst == prev. A call that changes an estimate must
// return the scratch state with the nil-dst call's estimates and
// analyses to the bit; one that changes none must return prev; and
// prev is never written, so dst == prev gets a fresh state. Then, on
// the fixture of TestReplanCostsUntouchedAllocatesNothing, a changing
// call into a warmed dst allocates nothing.
func TestReplanCostsWritesOwnedState(t *testing.T) {
	provs, queries := fig5Fixture(t)
	for mi, prov := range provs {
		o := New(prov)
		prev := basePlans(t, o, queries[mi])
		scratch := &Costs{}
		written := 0
		growthWalk(mi, prov, queries[mi], func(step int, _ structure, cfg, added *physical.Config) {
			for i := range queries[mi] {
				label := fmt.Sprintf("mapping %d step %d query %d", mi, step, i)
				from := prev[i].Costs()
				before := snapshot(from)
				want, err := o.ReplanCosts(nil, from, cfg, added)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := o.ReplanCosts(scratch, from, cfg, added)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameCosts(t, label+" into the scratch state vs a nil dst", got, want)
				switch {
				case want == from && got != from:
					t.Errorf("%s: no estimate changed, but the call did not return prev", label)
				case want != from && got != scratch:
					t.Errorf("%s: an estimate changed, but the call did not return its dst", label)
				case want != from:
					written++
				}
				self, err := o.ReplanCosts(from, from, cfg, added)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameCosts(t, label+" with dst == prev vs a nil dst", self, want)
				sameCosts(t, label+" prev after the three calls", from, before)
				if (self == from) != (want == from) {
					t.Errorf("%s: with dst == prev the call returned prev %v, want %v", label, self == from, want == from)
				}
				if prev[i], err = o.PlanFrom(want, cfg); err != nil {
					t.Fatalf("%s: PlanFrom: %v", label, err)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		})
		t.Logf("mapping %d: %d calls wrote the scratch state", mi, written)
		if written == 0 {
			t.Errorf("mapping %d: no call wrote the scratch state", mi)
		}
	}

	o := New(caseStats())
	q := &sqlast.Query{OrderBy: "ID", Branches: []*sqlast.Select{selectMovie(), joinBranch()}}
	p, err := o.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Costs()
	cfg := &physical.Config{Indexes: []*physical.Index{
		{Name: "a_pid", Table: "actor", Key: []string{"PID"}, Include: []string{"actor"}}}}
	want, err := o.ReplanCosts(nil, prev, cfg, cfg)
	if err != nil || want == prev {
		t.Fatalf("the fixture's call must change an estimate: err %v", err)
	}
	dst := &Costs{}
	if _, err := o.ReplanCosts(dst, prev, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.ReplanCosts(dst, prev, cfg, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a changing call into a warmed dst allocates %v objects, want 0", allocs)
	}
	sameCosts(t, "warmed dst vs a nil dst", dst, want)
}

// TestReplanServesIsSound: over the Fig. 5 fixture, grown by random
// structures, every branch a random further structure cannot serve is
// planned under the configuration with it exactly as without it — the
// gate keeps only what PlanQuery would rebuild to the bit.
func TestReplanServesIsSound(t *testing.T) {
	provs, queries := fig5Fixture(t)
	for mi, prov := range provs {
		o := New(prov)
		seq := 0
		var pool []structure
		for _, q := range queries[mi] {
			for _, s := range q.Branches {
				pool = append(pool, branchStructures(s, prov, &seq)...)
			}
		}
		r := rand.New(rand.NewSource(int64(mi) + 7))
		cfg := &physical.Config{}
		rejected, onTables := 0, 0
		for step := 0; step < 30; step++ {
			st := pool[r.Intn(len(pool))]
			next := st.with(cfg)
			if next == nil {
				continue
			}
			added := st.added()
			for i, q := range queries[mi] {
				before, err := o.PlanQuery(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				after, err := o.PlanQuery(q, next)
				if err != nil {
					t.Fatal(err)
				}
				all := true
				for bi, b := range before.Branches {
					if o.serves(b.an, added) {
						all = false
						continue
					}
					rejected++
					if st.touches(b.an) {
						onTables++
					}
					label := fmt.Sprintf("mapping %d step %d query %d branch %d", mi, step, i, bi)
					samePlan(t, label, &Plan{Branches: []*Branch{after.Branches[bi]}}, &Plan{Branches: []*Branch{b}})
				}
				if all {
					samePlan(t, fmt.Sprintf("mapping %d step %d query %d", mi, step, i), after, before)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			// Partitions stay out of the grown configuration (as in
			// TestReplanMatchesPlanQuery's early steps) so later indexes
			// keep something to serve.
			if st.vpart == nil {
				cfg = next
			}
		}
		if onTables == 0 {
			t.Errorf("mapping %d: %d branches rejected, none on the structure's tables", mi, rejected)
		}
	}
}

// sameRewrite fails unless RewriteOverView and the reference agree on a
// branch and view: in ok, in SQL and in every column reference, nil
// slices included. A rewrite must also share no item column with the
// branch, and each predicate's column list must end at its capacity, so
// appending to one cannot overwrite the next.
func sameRewrite(t *testing.T, label string, s *sqlast.Select, v *physical.View) bool {
	t.Helper()
	got, ok := RewriteOverView(s, v)
	want, wantOK := refRewriteOverView(s, v)
	if ok != wantOK {
		t.Fatalf("%s: applies %v, reference %v:\n%s", label, ok, wantOK, s.SQL())
	}
	if !ok {
		return false
	}
	if g, w := got.SQL(), want.SQL(); g != w {
		t.Fatalf("%s: SQL\n%s\nwant\n%s", label, g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rewrite %#v\nwant %#v", label, got, want)
	}
	for i, it := range got.Items {
		if it.Col != nil && it.Col == s.Items[i].Col {
			t.Fatalf("%s: item %d shares its column with the branch", label, i)
		}
	}
	for i, p := range got.Where {
		if cap(p.Cols) != len(p.Cols) && p.Kind != sqlast.PredCompare {
			t.Fatalf("%s: predicate %d columns %d of capacity %d", label, i, len(p.Cols), cap(p.Cols))
		}
	}
	return true
}

// tunerView is the join view physdesign's joinViewCandidate proposes for
// a two-table branch: over its first PID = ID join, the outer side's
// columns plus ID and the inner side's columns.
func tunerView(s *sqlast.Select, name string) *physical.View {
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
		oc, ic := s.ColumnsOf(r.Table), s.ColumnsOf(l.Table)
		if !slices.Contains(oc, rel.IDColumn) {
			oc = append(oc, rel.IDColumn)
		}
		sort.Strings(oc)
		return &physical.View{Name: name, Outer: r.Table, Inner: l.Table, OuterCols: oc, InnerCols: ic}
	}
	return nil
}

// rewriteCase is movie ⋈ actor with a column of its own in each place a
// rewrite maps: actor.actor only in an item, movie.genre only in a
// compare, movie.year only in an OR, actor.ID only as an EXISTS outer
// column; award is the EXISTS inner table and passes through.
func rewriteCase() (*sqlast.Select, func(drop string) *physical.View) {
	s := &sqlast.Select{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "movie", Column: "ID"}, As: "ID"},
			{Col: &sqlast.ColRef{Table: "actor", Column: "actor"}, As: "actor"}, {As: "prize"}},
		From: []string{"movie", "actor"},
		Where: []sqlast.Pred{joinPred("actor", "movie"),
			{Kind: sqlast.PredCompare, Op: sqlast.OpEq, Col: col("movie", "genre"), Value: rel.Str("g")},
			{Kind: sqlast.PredOrExists, Op: sqlast.OpGe, Value: rel.Int(2000),
				Cols:  []sqlast.ColRef{col("movie", "title"), col("movie", "year")},
				Table: "award", JoinCol: "PID", InnerCol: "prize", OuterCol: col("movie", "ID")},
			{Kind: sqlast.PredExists, Op: sqlast.OpEq, Value: rel.Int(3), Table: "award", JoinCol: "PID",
				InnerCol: "prize", OuterCol: col("actor", "ID")},
			{Kind: sqlast.PredOrExists, Op: sqlast.OpEq, Value: rel.Str("t"), Cols: []sqlast.ColRef{col("movie", "title")},
				Table: "award", JoinCol: "PID", InnerCol: "prize", OuterCol: col("movie", "ID")}},
	}
	view := func(drop string) *physical.View {
		keep := func(table string, cols ...string) []string {
			return slices.DeleteFunc(cols, func(c string) bool { return table+"."+c == drop })
		}
		return &physical.View{Name: "v", Outer: "movie", Inner: "actor",
			OuterCols: keep("movie", "ID", "genre", "title", "year"), InnerCols: keep("actor", "ID", "PID", "actor")}
	}
	return s, view
}

// TestRewriteOverViewMatchesReference runs RewriteOverView and the
// reference over hand cases that fail in each place a column is mapped,
// and over every view a tuner proposes for the Fig. 5 workloads under
// four mappings against every branch of the same mapping.
func TestRewriteOverViewMatchesReference(t *testing.T) {
	s, view := rewriteCase()
	for _, c := range []struct {
		name  string
		drop  string
		apply bool
	}{
		{"every column carried", "", true},
		{"fails at an item", "actor.actor", false},
		{"fails at a compare", "movie.genre", false},
		{"fails at an OR column", "movie.year", false},
		{"fails at an EXISTS outer column", "actor.ID", false},
		{"join column not carried", "actor.PID", true}, // the view absorbs the join
	} {
		if got := sameRewrite(t, c.name, s, view(c.drop)); got != c.apply {
			t.Errorf("%s: applies %v, want %v", c.name, got, c.apply)
		}
	}
	swapped := view("")
	swapped.Outer, swapped.Inner = swapped.Inner, swapped.Outer
	if sameRewrite(t, "view the other way round", s, swapped) {
		t.Error("a view joining the other way round applies")
	}

	provs, queries := fig5Fixture(t)
	for mi := range provs {
		var views []*physical.View
		seen := map[string]bool{}
		addView := func(v *physical.View) {
			if v != nil && !seen[v.ID()] {
				seen[v.ID()] = true
				views = append(views, v)
			}
		}
		seq := 0
		var branches []*sqlast.Select
		for _, q := range queries[mi] {
			for _, s := range q.Branches {
				branches = append(branches, s)
				if len(s.From) == 2 {
					addView(tunerView(s, fmt.Sprintf("v_%d", len(views))))
				}
				for _, st := range branchStructures(s, provs[mi], &seq) {
					addView(st.view)
				}
			}
		}
		applied, refused := 0, 0
		for vi, v := range views {
			for bi, s := range branches {
				label := fmt.Sprintf("mapping %d view %d branch %d", mi, vi, bi)
				switch {
				case sameRewrite(t, label, s, v):
					applied++
				case viewOf(s.From, v):
					refused++
				}
			}
		}
		t.Logf("mapping %d: %d views, %d rewrites, %d refused by a view of the branch's tables", mi, len(views), applied, refused)
		if applied == 0 || refused == 0 {
			t.Errorf("mapping %d: %d rewrites and %d refusals by a view of the branch's tables; the sweep needs both", mi, applied, refused)
		}
	}
}

// TestRewriteOverViewRefusesWithoutAllocating pins what a candidate view
// that does not apply costs the what-if path: nothing.
func TestRewriteOverViewRefusesWithoutAllocating(t *testing.T) {
	s, view := rewriteCase()
	for _, drop := range []string{"actor.actor", "movie.genre", "movie.year", "actor.ID"} {
		v := view(drop)
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := RewriteOverView(s, v); ok {
				t.Fatalf("view without %s applies", drop)
			}
		})
		if allocs != 0 {
			t.Errorf("view without %s: refusing allocates %v objects, want 0", drop, allocs)
		}
	}
}
