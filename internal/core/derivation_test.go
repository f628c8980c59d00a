package core

import (
	"testing"

	"repro/internal/physdesign"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/transform"
)

// evalFor fully evaluates a tree for derivation tests.
func evalFor(t *testing.T, adv *Advisor, tree *schema.Tree) *evalResult {
	t.Helper()
	var met Metrics
	ev, err := adv.evaluate(sign(tree), &met)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestChangedTablesDetectsColumnChanges(t *testing.T) {
	fx := dblpFixture(t, dblpTestQueries)
	adv := New(fx.base, fx.col, fx.w, Options{})
	cur := evalFor(t, adv, fx.base.Clone())

	// Repetition split on inproceedings' author changes the
	// inproceedings relation (new columns) and the author relation
	// (overflow rows, same columns -> author itself is unchanged
	// structurally).
	next := fx.base.Clone()
	for _, n := range next.ElementsNamed("author") {
		if n.ElementParent().Name == "inproceedings" {
			n.SplitCount = 3
		}
	}
	nextEv, _, err := adv.prepare(next)
	if err != nil {
		t.Fatal(err)
	}
	changed := changedTables(cur, nextEv)
	if !changed["inproceedings"] {
		t.Error("inproceedings should be marked changed (split columns)")
	}
	if changed["book"] || changed["cite"] {
		t.Errorf("unrelated tables marked changed: %v", changed)
	}
}

func TestChangedTablesDetectsPartitions(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	adv := New(fx.base, fx.col, fx.w, Options{})
	cur := evalFor(t, adv, fx.base.Clone())
	next := fx.base.Clone()
	movie := next.ElementsNamed("movie")[0]
	rating := next.ElementsNamed("avg_rating")[0]
	movie.Distributions = []schema.Distribution{{Optionals: []int{rating.ID}}}
	nextEv, _, err := adv.prepare(next)
	if err != nil {
		t.Fatal(err)
	}
	changed := changedTables(cur, nextEv)
	// The movie table disappears; two partition tables appear.
	for _, want := range []string{"movie", "movie_has_avg_rating", "movie_no_avg_rating"} {
		if !changed[want] {
			t.Errorf("%s should be marked changed; got %v", want, changed)
		}
	}
	if changed["actor"] {
		t.Error("actor should be unchanged")
	}
}

func TestDeriveCostMatchesExactForIrrelevantChange(t *testing.T) {
	// A repetition split on movie's aka_title must not change the cost
	// of a query that only touches book-unrelated tables... use a
	// query on director only; the changed tables are movie (columns)
	// and aka_title.
	fx := movieFixture(t, []string{
		`//movie[year = 1984]/(title | seasons | director)`,
	})
	adv := New(fx.base, fx.col, fx.w, Options{})
	cur := evalFor(t, adv, fx.base.Clone())

	next := fx.base.Clone()
	for _, n := range next.ElementsNamed("aka_title") {
		n.SplitCount = 2
	}
	var met Metrics
	derived, err := adv.deriveCost(cur, sign(next), &met)
	if err != nil {
		t.Fatal(err)
	}
	exact := evalFor(t, adv, next)
	// The derivation may retune some queries; it must stay close to the
	// exact estimate (Fig 9a: small quality deltas).
	if derived < exact.cost*0.5 || derived > exact.cost*2 {
		t.Errorf("derived %.2f vs exact %.2f", derived, exact.cost)
	}
}

// TestRetainedStructBytes pins the storage-budget accounting during
// derivation retuning: retained indexes, views, AND vertical partitions
// must all reduce the retune budget. Partitions were previously
// ignored, so a retune could recommend structures that no longer fit
// alongside a retained partitioning.
func TestRetainedStructBytes(t *testing.T) {
	ts := &stats.TableStats{Name: "t", Rows: 100, RowBytes: 40}
	cur := &evalResult{
		prov: stats.MapProvider{"t": ts},
		rec: &physdesign.Recommendation{Config: &physical.Config{
			Indexes:    []*physical.Index{{Name: "i1", Table: "t", Key: []string{"a"}}},
			Partitions: []*physical.VPartition{{Table: "t", Groups: [][]string{{"a"}, {"b"}}}},
		}},
	}
	idx := cur.rec.Config.Indexes[0]
	vp := cur.rec.Config.Partitions[0]

	if got := retainedStructBytes(cur, map[string]bool{}); got != 0 {
		t.Errorf("nothing retained: got %d bytes, want 0", got)
	}
	wantVP := vp.EstBytes(ts) - ts.Bytes()
	if wantVP <= 0 {
		t.Fatalf("fixture partition has no overhead (%d); test is vacuous", wantVP)
	}
	// Plans reference partition groups as table#gN (optimizer object
	// naming); any referenced group retains the whole partitioning.
	if got := retainedStructBytes(cur, map[string]bool{"t#g1": true}); got != wantVP {
		t.Errorf("retained partition: got %d bytes, want %d", got, wantVP)
	}
	wantBoth := idx.EstBytes(ts) + wantVP
	retained := map[string]bool{idx.ID(): true, "t#g0": true}
	if got := retainedStructBytes(cur, retained); got != wantBoth {
		t.Errorf("index+partition: got %d bytes, want %d", got, wantBoth)
	}
}

func TestInvertCandidateRoundTrip(t *testing.T) {
	fx := movieFixture(t, movieTestQueries)
	tree := schema.ApplyFullInlining(fx.base.Clone())
	rating := tree.ElementsNamed("avg_rating")[0]
	movie := tree.ElementsNamed("movie")[0]
	c := &candidate{seq: []transform.Transformation{
		{Kind: transform.UnionDist, Node: movie.ID,
			Dist: schema.Distribution{Optionals: []int{rating.ID}}},
	}, desc: "dist"}
	applied, err := c.apply(tree)
	if err != nil {
		t.Fatal(err)
	}
	inv := invertCandidate(c)
	if inv == nil {
		t.Fatal("no inverse")
	}
	back, err := inv.apply(applied)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Node(movie.ID).Distributions) != 0 {
		t.Error("inverse did not remove the distribution")
	}
	// Type merges have no clean inverse.
	tm := &candidate{seq: []transform.Transformation{{Kind: transform.TypeMerge, Nodes: []int{1, 2}}}}
	if invertCandidate(tm) != nil {
		t.Error("type merge should not be invertible")
	}
}
