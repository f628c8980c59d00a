package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/physdesign"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/transform"
)

// Greedy runs the paper's search algorithm (Fig. 3): candidate
// selection picks workload-relevant non-subsumed transformations
// (§4.5), all split-type candidates form the initial fully split
// mapping M0, implicit-union candidates are merged (§4.7), and the
// greedy loop repeatedly applies the merge-type candidate with the
// lowest tool-estimated cost, using cost derivation (§4.8) during
// enumeration and exact re-estimation for each round's winner.
func (a *Advisor) Greedy() (*Result, error) {
	start := time.Now()
	var met Metrics
	root := a.Opts.Obs.StartSpan("search", obs.String("algorithm", "greedy"))
	defer root.End()

	// Line 1: candidate selection on the fully inlined schema
	// (subsumed transformations are never applied alone; the schema
	// the search works on is kept fully inlined, §4.3).
	base := schema.ApplyFullInlining(a.Base.Clone())
	ssp := root.Child("candidate-selection")
	var sel *selected
	if a.Opts.DisableCandidateSelection {
		sel = a.allNonSubsumed(base)
	} else {
		sel = a.selectCandidates(base)
	}
	ssp.SetAttr(obs.Int("splits", int64(len(sel.splits))),
		obs.Int("merges", int64(len(sel.merges))))
	ssp.End()

	// Line 2: initial mapping M0 = all split candidates applied.
	cur := base
	for _, c := range sel.splits {
		next, err := c.apply(cur)
		if err != nil {
			continue // inapplicable in combination; skip
		}
		cur = next
		met.Transformations++
	}

	// Line 3: candidate merging.
	msp := root.Child("candidate-merging")
	cands := append([]*candidate(nil), sel.merges...)
	cands = append(cands, a.mergeCandidates(cur, sel, &met)...)
	if a.Opts.SearchSubsumed {
		// Ablation: also search subsumed transformations (what a naive
		// extension would do); each costs physical design calls but
		// cannot beat vertical partitioning / covering indexes.
		for _, t := range transform.EnumerateAll(cur, a.Col) {
			if t.Subsumed() {
				cands = append(cands, &candidate{seq: []transform.Transformation{t}, desc: t.Describe(cur)})
			}
		}
	}
	msp.SetAttr(obs.Int("candidates", int64(len(cands))))
	msp.End()

	// Line 5: tool call on M0.
	curEval, err := a.evaluate(sign(cur), &met)
	if err != nil {
		return nil, fmt.Errorf("core: costing initial mapping: %w", err)
	}
	a.tracef("greedy: %d split candidates applied, %d merge candidates, M0 cost %.2f",
		len(sel.splits), len(cands), curEval.cost)

	// Lines 6-19: greedy rounds. Candidates that fail to improve the
	// cost in several consecutive rounds are retired: they could in
	// principle become useful after another merge, but in practice
	// they only multiply tool calls (this is the "judicious
	// exploration" the paper's running-time numbers depend on).
	const maxStrikes = 2
	seen := make(map[string]bool, len(cands))
	strikes := make([]int, len(cands))
	for _, c := range cands {
		seen[c.key()] = true
	}
	for round := 0; a.Opts.MaxRounds == 0 || round < a.Opts.MaxRounds; round++ {
		rsp := root.Child("search-round", obs.Int("round", int64(round)))
		from := curEval.tree
		apply := func(ci int) signed {
			if cands[ci] == nil {
				return signed{}
			}
			next, _ := cands[ci].apply(from) // nil: not applicable this round; may apply later
			return sign(next)
		}
		// Rank every surviving candidate: derivation ranks cheaply and
		// the few best-ranked are re-estimated exactly below, so a
		// pessimistic derivation cannot steer the round to the wrong
		// winner.
		rank := a.exact
		if !a.Opts.DisableCostDerivation {
			rank = func(next signed, m *Metrics) (*evalResult, float64, error) {
				cost, err := a.deriveCost(curEval, next, m)
				return nil, cost, err
			}
		}
		outs := a.round(len(cands), apply, rank, &met)
		var ranked []int
		for ci := range outs {
			o := &outs[ci]
			if o.tree == nil {
				continue
			}
			if o.failed {
				cands[ci] = nil
				continue
			}
			ranked = append(ranked, ci)
			if o.cost < curEval.cost {
				strikes[ci] = 0
			} else {
				strikes[ci]++
				if strikes[ci] >= maxStrikes {
					cands[ci] = nil
				}
			}
		}
		bestIdx := -1
		var bestEv *evalResult // exact evaluation, when already available
		if a.Opts.DisableCostDerivation {
			// bestEv stays nil: line 18 asks the memo for the winner's
			// evaluation again, and that cache hit is counted.
			bestIdx = lowest(outs, curEval.cost)
		} else {
			// Walk the derived ranking and accept the first candidate
			// whose exact re-estimation improves the cost. Usually the
			// derived winner confirms on the first try (one exact
			// estimation per round, the paper's line 18); only when a
			// pessimistic derivation misranks do further candidates
			// get an exact look.
			sort.Slice(ranked, func(i, j int) bool { return outs[ranked[i]].cost < outs[ranked[j]].cost })
			const escalateLimit = 3
			for i := 0; i < len(ranked) && i < escalateLimit; i++ {
				ci := ranked[i]
				if cands[ci] == nil {
					continue // retired by strikes this round
				}
				ev, err := a.evaluate(outs[ci].signed, &met)
				if err != nil {
					cands[ci] = nil
					continue
				}
				a.tracef("greedy round %d: re-estimated %s, derived %.2f exact %.2f",
					round, cands[ci].desc, outs[ci].cost, ev.cost)
				if ev.cost < curEval.cost {
					bestIdx, bestEv = ci, ev
					break
				}
			}
			if bestIdx < 0 {
				// Derived costs are heuristic; before stopping, sweep the
				// surviving candidates once with exact estimation so a
				// candidate hidden by a pessimistic derivation cannot end
				// the search prematurely (this bounds the quality loss of
				// §4.8 the way the paper's line 18 re-estimation intends).
				// The sweep costs the trees the ranking applied and signed.
				fsp := rsp.Child("fallback-sweep")
				applied := func(ci int) signed {
					if cands[ci] == nil {
						return signed{}
					}
					return outs[ci].signed
				}
				sweep := a.round(len(cands), applied, a.exact, &met)
				for ci := range sweep {
					if sweep[ci].failed {
						cands[ci] = nil
					}
				}
				if bestIdx = lowest(sweep, curEval.cost); bestIdx >= 0 {
					bestEv = sweep[bestIdx].ev
				}
				fsp.End()
				if bestIdx >= 0 {
					a.tracef("greedy round %d: exact fallback sweep found %s", round, cands[bestIdx].desc)
				}
			}
		}
		if bestIdx < 0 {
			rsp.End()
			break
		}
		// Line 18: re-estimate the winner exactly and advance (reusing
		// the exact evaluation when one was already produced above).
		ev := bestEv
		if ev == nil {
			var err error
			ev, err = a.evaluate(outs[bestIdx].signed, &met)
			if err != nil {
				rsp.End()
				return nil, err
			}
		}
		if ev.cost >= curEval.cost {
			a.tracef("greedy round %d: %s rejected on exact re-estimation (%.2f >= %.2f)",
				round, cands[bestIdx].desc, ev.cost, curEval.cost)
			cands[bestIdx] = nil
			rsp.SetAttr(obs.String("outcome", "rejected"))
			rsp.End()
			continue
		}
		a.tracef("greedy round %d: applied %s, cost %.2f -> %.2f",
			round, cands[bestIdx].desc, curEval.cost, ev.cost)
		// Accepting a candidate makes its inverse available, so a move
		// that later turns out to block better states can be rolled
		// back (merged distributions in particular acquire their
		// factorization counterparts here).
		if inv := invertCandidate(cands[bestIdx]); inv != nil && !seen[inv.key()] {
			seen[inv.key()] = true
			cands = append(cands, inv)
			strikes = append(strikes, 0)
		}
		curEval = ev
		cands[bestIdx] = nil
		rsp.SetAttr(obs.String("outcome", "applied"), obs.Float("cost", ev.cost))
		rsp.End()
	}
	// Safety net: the fully inlined schema (the hybrid-inlining
	// default) is always in the search space; never return a design
	// that costs more than it.
	if baseEval, err := a.evaluate(sign(schema.ApplyFullInlining(a.Base.Clone())), &met); err == nil && baseEval.cost < curEval.cost {
		curEval = baseEval
	}
	met.Duration = time.Since(start)
	return a.result("Greedy", curEval, met), nil
}

// invertCandidate builds the reverse of an applied candidate where a
// clean inverse exists (distribution/factorization and repetition
// split/merge sequences); nil otherwise.
func invertCandidate(c *candidate) *candidate {
	inv := &candidate{desc: "undo " + c.desc}
	for i := len(c.seq) - 1; i >= 0; i-- {
		t := c.seq[i]
		switch t.Kind {
		case transform.UnionDist:
			inv.seq = append(inv.seq, transform.Transformation{
				Kind: transform.UnionFact, Node: t.Node, Dist: t.Dist})
		case transform.UnionFact:
			inv.seq = append(inv.seq, transform.Transformation{
				Kind: transform.UnionDist, Node: t.Node, Dist: t.Dist})
		case transform.RepSplit:
			inv.seq = append(inv.seq, transform.Transformation{
				Kind: transform.RepMerge, Node: t.Node})
		case transform.RepMerge:
			inv.seq = append(inv.seq, transform.Transformation{
				Kind: transform.RepSplit, Node: t.Node, SplitCount: t.SplitCount})
		default:
			return nil // type merges and splits are not round-tripped
		}
	}
	return inv
}

// deriveCostFull estimates the workload cost of a transformed mapping
// from the current evaluation (§4.8): queries whose plans avoid every
// changed relation keep their cost (irrelevant-relation rule; the
// repetition-split rule falls out because covering-index-only plans do
// not list the base table among their objects), and only the remaining
// queries are re-tuned with the space left after the retained
// structures.
func (a *Advisor) deriveCostFull(cur *evalResult, next *schema.Tree, met *Metrics) (float64, error) {
	sp := a.Opts.Obs.StartSpan("advisor.derive-cost")
	defer sp.End()
	ev, w, err := a.prepare(next)
	if err != nil {
		return 0, err
	}
	changed := changedTables(cur, ev)
	total := 0.0
	var retune physdesign.Workload
	retained := make(map[string]bool)
	derived := make([]bool, len(a.W.Queries))
	for i := range a.W.Queries {
		if objs, ok := derivable(cur, i, changed, ev); ok {
			total += a.W.Queries[i].Weight * cur.rec.PerQuery[i]
			met.CostsDerived++
			for _, obj := range objs {
				retained[obj] = true
			}
			derived[i] = true
			continue
		}
		retune = append(retune, w[i])
	}
	sp.SetAttr(obs.Int("derived_queries", int64(len(a.W.Queries)-len(retune))),
		obs.Int("retuned_queries", int64(len(retune))))
	if len(retune) == 0 {
		return total, nil
	}
	// Reduce the tool's budget by the structures the derived queries
	// keep using.
	opts := a.physOpts(ev.prov, ev.mapping)
	if opts.StorageBytes > 0 {
		opts.StorageBytes -= retainedStructBytes(cur, retained)
		if opts.StorageBytes < 1 {
			opts.StorageBytes = 1
		}
	}
	tsp := sp.Child("physdesign.tune")
	opts.Obs = tsp
	rec, err := physdesign.Tune(retune, ev.prov, opts)
	tsp.End()
	if err != nil {
		return 0, err
	}
	met.PhysDesignCalls++
	met.OptimizerCalls += rec.OptimizerCalls
	ri := 0
	for i := range a.W.Queries {
		if derived[i] {
			continue
		}
		total += a.W.Queries[i].Weight * rec.PerQuery[ri]
		ri++
	}
	return total, nil
}

// retainedStructBytes sums the sizes of the current configuration's
// structures that derived-query plans keep using, charged against the
// re-tuning budget the same way the tool accounts for them: full size
// for indexes and views, and the key-replication overhead over the base
// data for vertical partitions (derivable plans may scan partition
// groups — "table#gN" objects — so with EnableVPartitions on, omitting
// them would hand the re-tuning call an inflated budget).
func retainedStructBytes(cur *evalResult, retained map[string]bool) int64 {
	var bytes int64
	for _, idx := range cur.rec.Config.Indexes {
		if retained[idx.ID()] {
			bytes += idx.EstBytes(cur.prov.TableStats(idx.Table))
		}
	}
	for _, v := range cur.rec.Config.Views {
		if retained["view:"+v.Name] {
			bytes += v.EstBytes(cur.prov)
		}
	}
	for _, vp := range cur.rec.Config.Partitions {
		used := false
		for gi := range vp.Groups {
			if retained[vp.Table+"#g"+strconv.Itoa(gi)] {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		if ts := cur.prov.TableStats(vp.Table); ts != nil {
			bytes += vp.EstBytes(ts) - ts.Bytes()
		}
	}
	return bytes
}

// changedTables diffs two mappings: tables that exist in only one, or
// whose column lists (names and types, in order) differ.
func changedTables(cur, next *evalResult) map[string]bool {
	changed := make(map[string]bool)
	for _, r := range cur.mapping.Relations {
		n := next.mapping.Relation(r.Name)
		if n == nil || !slices.EqualFunc(r.Columns, n.Columns, func(a, b rel.Column) bool {
			return a.Name == b.Name && a.Typ == b.Typ
		}) {
			changed[r.Name] = true
		}
	}
	for _, r := range next.mapping.Relations {
		if cur.mapping.Relation(r.Name) == nil {
			changed[r.Name] = true
		}
	}
	return changed
}

// derivable implements the I(Q,M') = I(Q,M) heuristics: the plan under
// the current mapping must not read any changed table directly, and
// any index it uses on a changed table must remain definable (all its
// columns survive in the new mapping). A derivable query's objects are
// returned with it: the structures its derived cost keeps using.
func derivable(cur *evalResult, qi int, changed map[string]bool, next *evalResult) ([]string, bool) {
	plan := cur.rec.Plans[qi]
	if plan == nil {
		return nil, false
	}
	objs := plan.Objects()
	for _, obj := range objs {
		switch {
		case strings.HasPrefix(obj, "idx:"):
			table := indexObjectTable(obj)
			if !changed[table] {
				continue
			}
			if !indexSurvives(cur, obj, next) {
				return nil, false
			}
		case strings.HasPrefix(obj, "view:"):
			v := cur.rec.Config.View(strings.TrimPrefix(obj, "view:"))
			if v == nil || changed[v.Outer] || changed[v.Inner] {
				return nil, false
			}
		default:
			t := obj
			if i := strings.Index(t, "#g"); i >= 0 {
				t = t[:i]
			}
			if changed[t] {
				return nil, false
			}
		}
	}
	return objs, true
}

// indexObjectTable extracts the table from "idx:table(cols)inc(...)".
func indexObjectTable(obj string) string {
	s := strings.TrimPrefix(obj, "idx:")
	if i := strings.Index(s, "("); i >= 0 {
		return s[:i]
	}
	return s
}

// indexSurvives checks that every column of the index still exists in
// the new mapping's relation (the repetition-split rule of §4.8: a
// covering index untouched by the split keeps its size and plan).
func indexSurvives(cur *evalResult, obj string, next *evalResult) bool {
	for _, idx := range cur.rec.Config.Indexes {
		if idx.ID() != obj {
			continue
		}
		r := next.mapping.Relation(idx.Table)
		if r == nil {
			return false
		}
		have := make(map[string]bool, len(r.Columns))
		for _, c := range r.Columns {
			have[c.Name] = true
		}
		for _, c := range append(append([]string(nil), idx.Key...), idx.Include...) {
			if !have[c] {
				return false
			}
		}
		return true
	}
	return false
}
