package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/transform"
	"repro/internal/workload"
	"repro/internal/xpath"
)

func advisorFor(t *testing.T, fx *fixture) *Advisor {
	t.Helper()
	return New(fx.base, fx.col, fx.w, Options{})
}

func candidateKinds(cands []*candidate) map[transform.Kind]int {
	out := map[transform.Kind]int{}
	for _, c := range cands {
		for _, tf := range c.seq {
			out[tf.Kind]++
		}
	}
	return out
}

func TestSelectCandidatesRule2Implicit(t *testing.T) {
	// A query touching only the optional avg_rating must produce an
	// implicit-union split candidate (§4.5 rule 2).
	fx := movieFixture(t, []string{`//movie/avg_rating`})
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	kinds := candidateKinds(sel.splits)
	if kinds[transform.UnionDist] == 0 {
		t.Errorf("no union distribution selected: %v", describeAll(sel.splits))
	}
	// Its inverse must be among the merge candidates.
	if candidateKinds(sel.merges)[transform.UnionFact] == 0 {
		t.Errorf("no factorization inverse: %v", describeAll(sel.merges))
	}
}

func TestSelectCandidatesRule2Choice(t *testing.T) {
	// A query touching only box_office (one of two choice branches)
	// produces a choice distribution candidate.
	fx := movieFixture(t, []string{`//movie[year >= 2000]/box_office`})
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	found := false
	for _, c := range sel.splits {
		for _, tf := range c.seq {
			if tf.Kind == transform.UnionDist && tf.Dist.Choice != 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no choice distribution selected: %v", describeAll(sel.splits))
	}
}

func TestSelectCandidatesRule3RepSplit(t *testing.T) {
	fx := dblpFixture(t, []string{`//inproceedings[year = 2000]/(title | author)`})
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	kinds := candidateKinds(sel.splits)
	if kinds[transform.RepSplit] == 0 {
		t.Errorf("no repetition split selected: %v", describeAll(sel.splits))
	}
}

func TestSelectCandidatesSkipsIrrelevant(t *testing.T) {
	// A query touching only required scalar columns should produce no
	// distribution candidates for untouched optionals.
	fx := movieFixture(t, []string{`//movie[year = 1990]/title`})
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	for _, c := range sel.splits {
		if strings.Contains(c.desc, "avg_rating") || strings.Contains(c.desc, "language") {
			t.Errorf("irrelevant candidate selected: %s", c.desc)
		}
	}
}

func TestSelectCandidatesNeverSubsumed(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	for _, c := range append(append([]*candidate{}, sel.splits...), sel.merges...) {
		for _, tf := range c.seq {
			if tf.Subsumed() {
				t.Errorf("subsumed transformation selected: %s", c.desc)
			}
		}
	}
}

func TestMergeCandidatesGreedy(t *testing.T) {
	// Three queries each touching one optional of movie: greedy merging
	// must produce at least one merged implicit union (the §4.7
	// Q1/Q2 example).
	fx := movieFixture(t, []string{
		`//movie[year >= 1960]/avg_rating`,
		`//movie[year >= 1960]/language`,
		`//movie[year >= 1960]/runtime`,
	})
	adv := advisorFor(t, fx)
	base := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(base)
	cur := base
	for _, c := range sel.splits {
		if next, err := c.apply(cur); err == nil {
			cur = next
		}
	}
	var met Metrics
	merged := adv.mergeCandidates(cur, sel, &met)
	if len(merged) == 0 {
		t.Fatal("greedy merging produced nothing")
	}
	// A merged candidate factorizes singletons then distributes the
	// union.
	c := merged[0]
	var facts, dists int
	for _, tf := range c.seq {
		switch tf.Kind {
		case transform.UnionFact:
			facts++
		case transform.UnionDist:
			dists++
			if len(tf.Dist.Optionals) < 2 {
				t.Errorf("merged distribution has %d optionals", len(tf.Dist.Optionals))
			}
		}
	}
	if facts < 2 || dists != 1 {
		t.Errorf("merged candidate shape: %d facts, %d dists", facts, dists)
	}
	// And it must apply cleanly to the fully split mapping.
	if _, err := c.apply(cur); err != nil {
		t.Errorf("merged candidate does not apply: %v", err)
	}
}

func TestMergeCandidatesExhaustiveSuperset(t *testing.T) {
	fx := movieFixture(t, []string{
		`//movie[year >= 1960]/avg_rating`,
		`//movie[year >= 1960]/language`,
		`//movie[year >= 1960]/runtime`,
	})
	base := schema.ApplyFullInlining(fx.base.Clone())
	greedyAdv := New(fx.base, fx.col, fx.w, Options{Merge: MergeGreedy})
	exAdv := New(fx.base, fx.col, fx.w, Options{Merge: MergeExhaustive})
	noneAdv := New(fx.base, fx.col, fx.w, Options{Merge: MergeNone})
	sel := greedyAdv.selectCandidates(base)
	cur := base
	for _, c := range sel.splits {
		if next, err := c.apply(cur); err == nil {
			cur = next
		}
	}
	var met Metrics
	g := greedyAdv.mergeCandidates(cur, sel, &met)
	e := exAdv.mergeCandidates(cur, sel, &met)
	n := noneAdv.mergeCandidates(cur, sel, &met)
	if len(n) != 0 {
		t.Errorf("MergeNone produced %d candidates", len(n))
	}
	if len(e) < len(g) {
		t.Errorf("exhaustive (%d) produced fewer than greedy (%d)", len(e), len(g))
	}
}

// TestMergeCandidatesDeterministicOrder: candidate indices decide
// Greedy's ties (lowest index wins), so merging must emit its merged
// candidates in one order on every call. LP-HS-20 over quarter-scale
// DBLP merges implicit unions on more than one host; visiting hosts in
// map order returned them in varying orders.
func TestMergeCandidatesDeterministicOrder(t *testing.T) {
	fx := pinnedFixtures(t, 20)[0]
	adv := advisorFor(t, fx)
	tree := schema.ApplyFullInlining(fx.base.Clone())
	sel := adv.selectCandidates(tree)
	for _, c := range sel.splits {
		if next, err := c.apply(tree); err == nil {
			tree = next
		}
	}
	order := func() string {
		var met Metrics
		return strings.Join(describeAll(adv.mergeCandidates(tree, sel, &met)), "; ")
	}
	want := order()
	hosts := make(map[string]bool)
	for _, d := range strings.Split(want, "; ") {
		host, _, _ := strings.Cut(d, ":")
		hosts[host] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("%s merges on %d host(s), want several: %s", fx.w.Name, len(hosts), want)
	}
	for i := 0; i < 100; i++ {
		if got := order(); got != want {
			t.Fatalf("call %d merged in another order:\n got  %s\n want %s", i, got, want)
		}
	}
}

func TestInvertSplitShapes(t *testing.T) {
	tree := schema.ApplyFullInlining(schema.DBLP().Clone())
	for _, tf := range transform.EnumerateNonSubsumed(tree, nil) {
		if tf.MergeType() {
			continue
		}
		inv := invertSplit(tree, tf)
		if tf.Kind == transform.RepSplit || tf.Kind == transform.UnionDist || tf.Kind == transform.TypeSplit {
			if inv == nil {
				t.Errorf("no inverse for %s", tf.Describe(tree))
				continue
			}
			// Inverse of a split applied after the split restores a
			// compilable mapping.
			mid, err := tf.Apply(tree)
			if err != nil {
				continue
			}
			if _, err := inv.apply(mid); err != nil {
				t.Errorf("inverse of %s does not apply: %v", tf.Describe(tree), err)
			}
		}
	}
}

func TestReferencedLeaves(t *testing.T) {
	tree := schema.Movie()
	ctx := tree.ElementsNamed("movie")[0]
	q := xpath.MustParse(`//movie[year = 2000]/(title | actor)`)
	refs := referencedLeaves(ctx, q)
	names := map[string]bool{}
	for _, n := range refs {
		names[n.Name] = true
	}
	for _, want := range []string{"year", "title", "actor"} {
		if !names[want] {
			t.Errorf("missing referenced leaf %s: %v", want, names)
		}
	}
	if len(refs) != 3 {
		t.Errorf("refs = %d", len(refs))
	}
}

func describeAll(cs []*candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.desc
	}
	return out
}

// TestQueryCostRefusalIsNotFree: the merge oracle's per-query cost is
// +Inf for a query the mapping cannot translate — it cannot answer it,
// so the query is never free there — finite and positive for one it
// answers, and exactly 0 for one it proves empty, a query of zero
// branches.
func TestQueryCostRefusalIsNotFree(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	adv := advisorFor(t, fx)
	tree := fx.base.Clone()
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	tree.ElementsNamed("movie")[0].Distributions = []schema.Distribution{{Choice: choice.ID}}
	for _, tc := range []struct {
		query string
		want  func(float64) bool
	}{
		{`//movie/nonexistent`, func(c float64) bool { return math.IsInf(c, 1) }},
		{`//movie[year >= 2000]/(title | box_office)`, func(c float64) bool { return c > 0 && !math.IsInf(c, 0) }},
		{`//movie[box_office >= 1000]/seasons`, func(c float64) bool { return c == 0 }},
	} {
		var met Metrics
		if got := adv.queryCost(tree, workload.Query{XPath: xpath.MustParse(tc.query), Weight: 1}, &met); !tc.want(got) {
			t.Errorf("%s: cost %v", tc.query, got)
		}
	}
}

// TestMergedBenefitSkipsUnanswerableQuery: a query whose projection lies
// in the merge set but which the mapping cannot translate (its selection
// resolves to no element) costs +Inf; it must add nothing to the merge's
// benefit rather than make the merge look best.
func TestMergedBenefitSkipsUnanswerableQuery(t *testing.T) {
	answerable := `//movie[year >= 1960]/(avg_rating | language)`
	benefit := func(queries ...string) float64 {
		fx := movieFixture(t, queries)
		adv := advisorFor(t, fx)
		tree := schema.ApplyFullInlining(fx.base.Clone())
		opts := []int{tree.ElementsNamed("avg_rating")[0].ID, tree.ElementsNamed("language")[0].ID}
		var met Metrics
		return adv.mergedBenefit(tree, tree.ElementsNamed("movie")[0].ID, opts, &met)
	}
	want := benefit(answerable)
	if want <= 0 || math.IsInf(want, 0) {
		t.Fatalf("benefit of the answerable query alone = %v, want finite and positive", want)
	}
	if got := benefit(answerable, `//movie[nonexistent = "x"]/(avg_rating | language)`); got != want {
		t.Errorf("with an unanswerable query the benefit is %v, want the answerable query's %v", got, want)
	}
}
