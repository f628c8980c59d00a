package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/transform"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// candidate is one search step: a sequence of transformations applied
// together (singletons for plain candidates; factorize-then-distribute
// compounds for merged implicit unions, Section 4.7).
type candidate struct {
	seq  []transform.Transformation
	desc string
}

func (c *candidate) key() string {
	parts := make([]string, len(c.seq))
	for i, t := range c.seq {
		parts[i] = t.Key()
	}
	return strings.Join(parts, "+")
}

func (c *candidate) apply(tr *schema.Tree) (*schema.Tree, error) {
	out := tr
	for _, t := range c.seq {
		var err error
		out, err = t.Apply(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selected carries the split-type candidates chosen by candidate
// selection together with their merge-type inverses.
type selected struct {
	// splits are applied once to form the initial fully split mapping.
	splits []*candidate
	// merges are the greedy search candidates (inverses of splits plus
	// merged implicit unions and workload-driven type merges).
	merges []*candidate
}

// selectCandidates implements Section 4.5: analyze each workload query
// and keep only transformations that can benefit it. Subsumed
// transformations are never selected (rule 1).
func (a *Advisor) selectCandidates(tree *schema.Tree) *selected {
	out := &selected{}
	seenSplit := make(map[string]bool)
	seenMerge := make(map[string]bool)
	addSplit := func(t transform.Transformation, inverse *candidate) {
		c := &candidate{seq: []transform.Transformation{t}, desc: t.Describe(tree)}
		if seenSplit[c.key()] {
			return
		}
		seenSplit[c.key()] = true
		out.splits = append(out.splits, c)
		if inverse != nil && !seenMerge[inverse.key()] {
			seenMerge[inverse.key()] = true
			out.merges = append(out.merges, inverse)
		}
	}
	addMerge := func(c *candidate) {
		if seenMerge[c.key()] {
			return
		}
		seenMerge[c.key()] = true
		out.merges = append(out.merges, c)
	}

	for _, wq := range a.W.Queries {
		for _, ctx := range translate.ResolveContext(tree, wq.XPath.Context) {
			a.candidatesForQuery(tree, ctx, wq.XPath, addSplit, addMerge)
		}
	}
	return out
}

// candidatesForQuery applies rules 2 and 3 of Section 4.5 for one
// query and context element.
func (a *Advisor) candidatesForQuery(tree *schema.Tree, ctx *schema.Node, q *xpath.Query,
	addSplit func(transform.Transformation, *candidate), addMerge func(*candidate)) {
	refs := referencedLeaves(ctx, q)
	if len(refs) == 0 {
		return
	}
	host := hostAnchor(ctx)
	if host == nil {
		return
	}
	// Rule 2a: explicit union distribution when the query touches at
	// most half of the branches.
	for _, choice := range inlineChoicesOf(host) {
		branches := choice.Children
		touched := 0
		for _, b := range branches {
			if branchTouches(b, refs) {
				touched++
			}
		}
		if touched > 0 && touched*2 <= len(branches) {
			t := transform.Transformation{Kind: transform.UnionDist, Node: host.ID,
				Dist: schema.Distribution{Choice: choice.ID}}
			inv := &candidate{seq: []transform.Transformation{{
				Kind: transform.UnionFact, Node: host.ID, Dist: schema.Distribution{Choice: choice.ID},
			}}, desc: "undo " + t.Describe(tree)}
			addSplit(t, inv)
		}
	}
	// Rule 2b: implicit union on referenced optional leaves.
	for _, leaf := range refs {
		if leaf.IsOptional() && leaf.IsLeaf() && leaf.Annotation == "" && leaf.ElementParent() == host {
			d := schema.Distribution{Optionals: []int{leaf.ID}}
			t := transform.Transformation{Kind: transform.UnionDist, Node: host.ID, Dist: d}
			inv := &candidate{seq: []transform.Transformation{{
				Kind: transform.UnionFact, Node: host.ID, Dist: d,
			}}, desc: "undo " + t.Describe(tree)}
			addSplit(t, inv)
		}
	}
	// Rule 2c: type split when the query accesses one occurrence of a
	// shared annotation.
	for _, leaf := range refs {
		if leaf.Annotation == "" {
			continue
		}
		shared := false
		tree.Walk(func(n *schema.Node) {
			if n != leaf && n.Annotation == leaf.Annotation {
				shared = true
			}
		})
		if shared {
			t := transform.Transformation{Kind: transform.TypeSplit, Node: leaf.ID}
			// The inverse merges the group back together.
			var ids []int
			tree.Walk(func(n *schema.Node) {
				if n.Kind == schema.KindElement && n.Annotation == leaf.Annotation {
					ids = append(ids, n.ID)
				}
			})
			inv := &candidate{seq: []transform.Transformation{{
				Kind: transform.TypeMerge, Nodes: ids, Name: leaf.Annotation,
			}}, desc: "undo " + t.Describe(tree)}
			addSplit(t, inv)
		}
	}
	// Rule 3: repetition split on referenced set-valued leaves with a
	// skewed cardinality distribution (Section 4.6).
	for _, leaf := range refs {
		if !leaf.IsSetValued() || !leaf.IsLeaf() || leaf.Annotation == "" || leaf.SplitCount > 0 {
			continue
		}
		if leaf.AnnotatedAncestor() != host {
			continue
		}
		k := transform.SplitCountFor(leaf, a.Col)
		if k > 0 {
			t := transform.Transformation{Kind: transform.RepSplit, Node: leaf.ID, SplitCount: k}
			inv := &candidate{seq: []transform.Transformation{{
				Kind: transform.RepMerge, Node: leaf.ID,
			}}, desc: "undo " + t.Describe(tree)}
			addSplit(t, inv)
		}
	}
	// Workload-driven type merges: the query touches several
	// occurrences of one shared type with different annotations.
	byType := make(map[string][]*schema.Node)
	for _, leaf := range refs {
		if leaf.TypeName != "" {
			byType[leaf.TypeName] = append(byType[leaf.TypeName], leaf)
		}
	}
	for _, group := range byType {
		if len(group) < 2 {
			continue
		}
		full := tree.SharedTypeGroups()[group[0].TypeName]
		if len(full) < 2 {
			continue
		}
		parents := make(map[*schema.Node]bool)
		ok := true
		var ids []int
		for _, n := range full {
			anc := n.AnnotatedAncestor()
			if parents[anc] || n.SplitCount > 0 || len(n.Distributions) > 0 {
				ok = false
			}
			parents[anc] = true
			ids = append(ids, n.ID)
		}
		anns := make(map[string]bool)
		for _, n := range full {
			anns[n.Annotation] = true
		}
		if ok && len(anns) > 1 {
			addMerge(&candidate{seq: []transform.Transformation{{
				Kind: transform.TypeMerge, Nodes: ids,
			}}, desc: fmt.Sprintf("type-merge(%s)", group[0].TypeName)})
		}
	}
}

// allNonSubsumed builds split candidates from the full non-subsumed
// enumeration (used when candidate selection is disabled).
func (a *Advisor) allNonSubsumed(tree *schema.Tree) *selected {
	out := &selected{}
	for _, t := range transform.EnumerateNonSubsumed(tree, a.Col) {
		c := &candidate{seq: []transform.Transformation{t}, desc: t.Describe(tree)}
		if t.MergeType() {
			out.merges = append(out.merges, c)
			continue
		}
		out.splits = append(out.splits, c)
		if inv := invertSplit(tree, t); inv != nil {
			out.merges = append(out.merges, inv)
		}
	}
	return out
}

// invertSplit builds the merge-type inverse of a split transformation.
func invertSplit(tree *schema.Tree, t transform.Transformation) *candidate {
	switch t.Kind {
	case transform.UnionDist:
		return &candidate{seq: []transform.Transformation{{
			Kind: transform.UnionFact, Node: t.Node, Dist: t.Dist,
		}}, desc: "undo " + t.Describe(tree)}
	case transform.RepSplit:
		return &candidate{seq: []transform.Transformation{{
			Kind: transform.RepMerge, Node: t.Node,
		}}, desc: "undo " + t.Describe(tree)}
	case transform.TypeSplit:
		n := tree.Node(t.Node)
		if n == nil || n.Annotation == "" {
			return nil
		}
		var ids []int
		tree.Walk(func(m *schema.Node) {
			if m.Kind == schema.KindElement && m.Annotation == n.Annotation {
				ids = append(ids, m.ID)
			}
		})
		return &candidate{seq: []transform.Transformation{{
			Kind: transform.TypeMerge, Nodes: ids, Name: n.Annotation,
		}}, desc: "undo " + t.Describe(tree)}
	}
	return nil
}

// mergeCandidates implements Section 4.7: combine implicit-union
// candidates on the same relation into merged candidates using the
// I/O-saving heuristic benefit model (greedy strategy), all subsets
// (exhaustive), or nothing.
func (a *Advisor) mergeCandidates(tree *schema.Tree, sel *selected, met *Metrics) []*candidate {
	// Collect singleton implicit-union split candidates per host node.
	type implicit struct {
		host int
		opts []int
	}
	var singles []implicit
	for _, c := range sel.splits {
		if len(c.seq) != 1 {
			continue
		}
		t := c.seq[0]
		if t.Kind == transform.UnionDist && t.Dist.Choice == 0 {
			singles = append(singles, implicit{host: t.Node, opts: t.Dist.Optionals})
		}
	}
	if len(singles) < 2 || a.Opts.Merge == MergeNone {
		return nil
	}
	// Hosts go in ascending node ID, so candidate indices — and with
	// them the search's lowest-index tie-break — do not follow map order.
	byHost := make(map[int][][]int)
	var hosts []int
	for _, s := range singles {
		if byHost[s.host] == nil {
			hosts = append(hosts, s.host)
		}
		byHost[s.host] = append(byHost[s.host], s.opts)
	}
	sort.Ints(hosts)
	var merged []*candidate
	emit := func(host int, opts []int) {
		sort.Ints(opts)
		// The merged candidate factorizes the involved singletons (and
		// any previous merged sets they belong to) and distributes the
		// union of the optional sets; during search, inapplicable
		// members simply fail and the candidate is skipped that round.
		var seq []transform.Transformation
		for _, o := range opts {
			seq = append(seq, transform.Transformation{
				Kind: transform.UnionFact, Node: host,
				Dist: schema.Distribution{Optionals: []int{o}},
			})
		}
		seq = append(seq, transform.Transformation{
			Kind: transform.UnionDist, Node: host,
			Dist: schema.Distribution{Optionals: opts},
		})
		merged = append(merged, &candidate{seq: seq,
			desc: fmt.Sprintf("merged-implicit-union(%d:%v)", host, opts)})
	}
	switch a.Opts.Merge {
	case MergeExhaustive:
		for _, host := range hosts {
			var all []int
			seen := make(map[int]bool)
			for _, s := range byHost[host] {
				for _, o := range s {
					if !seen[o] {
						seen[o] = true
						all = append(all, o)
					}
				}
			}
			sort.Ints(all)
			n := len(all)
			if n < 2 {
				continue
			}
			for mask := 1; mask < (1 << n); mask++ {
				if popcount(mask) < 2 {
					continue
				}
				var opts []int
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						opts = append(opts, all[i])
					}
				}
				emit(host, opts)
			}
		}
	default: // MergeGreedy
		for _, host := range hosts {
			cur := byHost[host]
			for {
				bi, bj, bBenefit := -1, -1, 0.0
				for i := 0; i < len(cur); i++ {
					for j := i + 1; j < len(cur); j++ {
						if subsetOf(cur[i], cur[j]) || subsetOf(cur[j], cur[i]) {
							continue
						}
						u := union(cur[i], cur[j])
						b := a.mergedBenefit(tree, host, u, met)
						if b > bBenefit {
							bi, bj, bBenefit = i, j, b
						}
					}
				}
				if bi < 0 {
					break
				}
				u := union(cur[bi], cur[bj])
				emit(host, u)
				// Replace the pair with the merged set.
				next := [][]int{u}
				for k, s := range cur {
					if k != bi && k != bj {
						next = append(next, s)
					}
				}
				cur = next
			}
		}
	}
	return merged
}

// mergedBenefit is the heuristic I/O-saving model of Section 4.7.
func (a *Advisor) mergedBenefit(tree *schema.Tree, hostID int, opts []int, met *Metrics) float64 {
	host := tree.Node(hostID)
	if host == nil {
		return 0
	}
	// Fraction of host instances having none of the optionals
	// (independence assumption): rows the query skips when its
	// references are within the optional set.
	pNone := 1.0
	for _, o := range opts {
		pNone *= 1 - a.Col.Presence(o, hostID)
	}
	if pNone <= 0 {
		return 0
	}
	optSet := make(map[int]bool, len(opts))
	for _, o := range opts {
		optSet[o] = true
	}
	total := 0.0
	for _, wq := range a.W.Queries {
		ctxs := translate.ResolveContext(tree, wq.XPath.Context)
		applies := false
		for _, ctx := range ctxs {
			if hostAnchor(ctx) != host {
				continue
			}
			// The translator prunes a partition when all of its inline
			// projection slots are NULL, so the benefit condition is on
			// the projection leaves only (the selection is evaluated
			// inside whatever partitions remain).
			projLeaves := projectionLeavesOf(ctx, wq.XPath)
			inlineProj, within := 0, 0
			for _, l := range projLeaves {
				if l.Annotation == "" && l.IsLeaf() && l.ElementParent() == host {
					inlineProj++
					if optSet[l.ID] {
						within++
					}
				}
			}
			if inlineProj > 0 && inlineProj == within {
				applies = true
			}
		}
		if !applies {
			continue
		}
		// A query the mapping cannot answer costs +Inf (queryCostFull):
		// its saving is unknown, and no merge makes it answerable, so it
		// adds nothing rather than making this merge look best.
		if c := a.queryCost(tree, wq, met); !math.IsInf(c, 0) && !math.IsNaN(c) {
			total += wq.Weight * c * pNone
		}
	}
	return total
}

// projectionLeavesOf resolves only the projection paths of a query.
func projectionLeavesOf(ctx *schema.Node, q *xpath.Query) []*schema.Node {
	var out []*schema.Node
	seen := make(map[int]bool)
	for _, p := range q.Proj {
		for _, n := range resolveLeafPath(ctx, p) {
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// queryCostFull costs one query under a mapping with a bare
// configuration: the cache-miss path of queryCost. A mapping that
// cannot compile, translate or cost the query cannot answer it, so the
// query costs +Inf there, never nothing.
func (a *Advisor) queryCostFull(tree *schema.Tree, wq workload.Query, met *Metrics) float64 {
	m, err := a.shreds.Compile(tree)
	if err != nil {
		return math.Inf(1)
	}
	sql, err := translate.Translate(m, wq.XPath)
	if err != nil {
		return math.Inf(1)
	}
	prov := a.shreds.DeriveStats(m)
	if a.observe != nil {
		a.observe(&evalResult{tree: tree, mapping: m, prov: prov})
	}
	opt := optimizer.New(prov)
	cost, err := opt.Cost(sql, nil)
	met.OptimizerCalls += opt.Calls()
	if err != nil {
		return math.Inf(1)
	}
	return cost
}

// referencedLeaves resolves every selection and projection path of a
// query to leaf nodes under the context.
func referencedLeaves(ctx *schema.Node, q *xpath.Query) []*schema.Node {
	var out []*schema.Node
	seen := make(map[int]bool)
	addPath := func(p xpath.Path) {
		for _, n := range resolveLeafPath(ctx, p) {
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	if q.Pred != nil {
		addPath(q.Pred.Path)
	}
	for _, p := range q.Proj {
		addPath(p)
	}
	return out
}

func resolveLeafPath(ctx *schema.Node, p xpath.Path) []*schema.Node {
	cur := []*schema.Node{ctx}
	for _, name := range p {
		var next []*schema.Node
		for _, n := range cur {
			for _, c := range n.ElementChildren() {
				if c.Name == name {
					next = append(next, c)
				}
			}
		}
		cur = next
	}
	var out []*schema.Node
	for _, n := range cur {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// hostAnchor returns the annotated element hosting the context's
// inlined content.
func hostAnchor(ctx *schema.Node) *schema.Node {
	if ctx.Annotation != "" {
		return ctx
	}
	return ctx.AnnotatedAncestor()
}

// inlineChoicesOf lists the choice constructors inlined under an
// anchor.
func inlineChoicesOf(anchor *schema.Node) []*schema.Node {
	var out []*schema.Node
	var walk func(n *schema.Node)
	walk = func(n *schema.Node) {
		if n.Kind == schema.KindElement {
			return
		}
		if n.Kind == schema.KindChoice {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range anchor.Children {
		walk(c)
	}
	return out
}

// branchTouches reports whether any referenced leaf lies under the
// branch subtree.
func branchTouches(branch *schema.Node, refs []*schema.Node) bool {
	for _, r := range refs {
		for p := r; p != nil; p = p.Parent {
			if p == branch {
				return true
			}
		}
	}
	return false
}

func subsetOf(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func union(a, b []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, x := range append(append([]int(nil), a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
