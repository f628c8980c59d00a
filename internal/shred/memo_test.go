package shred

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/transform"
	"repro/internal/xmlgen"
)

// memoSchema is r(h*(k, g(w*), p(v*)), j*(m, p(v*))) with the two p
// sharing a type: outlining g or a p changes the parent of the relation
// below it, and merging the two p renames one's annotation and gives
// the other's children a parent annotation with two anchors.
func memoSchema() *schema.Tree {
	leaf := func(name string) *schema.Node { return schema.Leaf(name, schema.BaseString) }
	p := func() *schema.Node {
		n := schema.Elem("p", schema.Rep(leaf("v")))
		n.TypeName = "P"
		return n
	}
	return schema.ApplyHybridInlining(schema.NewTree(schema.Elem("r", schema.Seq(
		schema.Rep(schema.Elem("h", schema.Seq(leaf("k"), schema.Elem("g", schema.Rep(leaf("w"))), p()))),
		schema.Rep(schema.Elem("j", schema.Seq(leaf("m"), p())))))))
}

// checkMemoMapping compares a mapping and statistics from the memo with
// a fresh Compile and DeriveStats of the same tree.
func checkMemoMapping(got *Mapping, gotStats stats.MapProvider, tree *schema.Tree, col *stats.Collection) error {
	want, err := Compile(tree)
	if err != nil {
		return fmt.Errorf("fresh compile: %v", err)
	}
	if len(got.Relations) != len(want.Relations) {
		return fmt.Errorf("%d relations, fresh %d", len(got.Relations), len(want.Relations))
	}
	for i, r := range got.Relations {
		w := want.Relations[i]
		if r.Name != w.Name || r.Ann != w.Ann || !slices.Equal(r.ParentAnns, w.ParentAnns) ||
			!reflect.DeepEqual(r.Columns, w.Columns) || !reflect.DeepEqual(r.Part, w.Part) ||
			!reflect.DeepEqual(r.colByLeaf, w.colByLeaf) {
			return fmt.Errorf("relation %d: %s%v %v, fresh %s%v %v", i, r.Name, r.ParentAnns, r.Columns, w.Name, w.ParentAnns, w.Columns)
		}
		for j, a := range r.Anchors {
			if a != tree.Node(w.Anchors[j].ID) {
				return fmt.Errorf("relation %s: anchor %d is not node %d of the tree", r.Name, j, w.Anchors[j].ID)
			}
		}
	}
	if len(got.homes) != len(want.homes) {
		return fmt.Errorf("homes of %d leaves, fresh %d", len(got.homes), len(want.homes))
	}
	for leaf, hs := range want.homes {
		g := got.homes[leaf]
		if len(g) != len(hs) {
			return fmt.Errorf("leaf %d: %d homes, fresh %d", leaf, len(g), len(hs))
		}
		for i, h := range hs {
			if g[i].Rel != got.Relation(h.Rel.Name) || g[i].Column != h.Column || g[i].Occurrence != h.Occurrence || g[i].Overflow != h.Overflow {
				return fmt.Errorf("leaf %d home %d: %s.%s, fresh %s.%s", leaf, i, g[i].Rel.Name, g[i].Column, h.Rel.Name, h.Column)
			}
		}
	}
	for name, ts := range DeriveStats(want, col) {
		if !reflect.DeepEqual(gotStats[name], ts) {
			return fmt.Errorf("statistics of %s: %+v, fresh %+v", name, gotStats[name], ts)
		}
	}
	return nil
}

// TestMemoMatchesFreshCompile: one Memo compiles and derives the
// statistics of a sequence of trees a transformation or two apart — on
// DBLP, Movie and memoSchema — and every mapping and every statistic
// equals a fresh Compile and DeriveStats.
func TestMemoMatchesFreshCompile(t *testing.T) {
	custom := memoSchema()
	for _, tc := range []struct {
		name string
		tree *schema.Tree
		doc  *xmlgen.Doc
	}{
		{"dblp", schema.DBLP(), xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 150, Books: 20, Seed: 43})},
		{"movie", schema.Movie(), xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 150, Seed: 44})},
		{"custom", custom, xmlgen.NewGenerator(custom, xmlgen.NewGenSpec(), 45).GenerateRootChildren(map[string]int{"h": 40, "j": 40})},
	} {
		col := xmlgen.CollectStats(tc.tree, tc.doc)
		memo := NewMemo(col, nil)
		trees := []*schema.Tree{tc.tree}
		for _, t1 := range transform.EnumerateAll(tc.tree, col) {
			next, err := t1.Apply(tc.tree)
			if err != nil {
				continue
			}
			trees = append(trees, next)
			for _, t2 := range transform.EnumerateAll(next, col) {
				if nn, err := t2.Apply(next); err == nil {
					trees = append(trees, nn)
				}
			}
		}
		compiled := 0
		for i, tree := range trees {
			m, err := memo.Compile(tree)
			if _, ferr := Compile(tree); (err == nil) != (ferr == nil) {
				t.Fatalf("%s tree %d: memo error %v, fresh error %v", tc.name, i, err, ferr)
			}
			if err != nil {
				continue
			}
			compiled++
			if err := checkMemoMapping(m, memo.DeriveStats(m), tree, col); err != nil {
				t.Fatalf("%s tree %d (%s): %v", tc.name, i, tree, err)
			}
		}
		t.Logf("%s: %d mappings, %d annotation groups compiled", tc.name, compiled, len(memo.groups))
	}
}
