package translate

import (
	"fmt"
	"testing"

	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/transform"
	"repro/internal/workload"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// memoQueries are the four StandardParams workloads on the schema plus
// queries of the shapes the workloads may lack: per set-valued leaf a
// selection on it, per element a bare context, and per element name
// that occurs twice a context resolving to both.
func memoQueries(t *testing.T, base *schema.Tree, doc *xmlgen.Doc) []*xpath.Query {
	t.Helper()
	col := xmlgen.CollectStats(base, doc)
	var out []*xpath.Query
	for _, p := range workload.StandardParams(5, 45) {
		w, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, q := range w.Queries {
			out = append(out, q.XPath)
		}
	}
	names := map[string]int{}
	for _, n := range base.Elements() {
		names[n.Name]++
		out = append(out, xpath.MustParse("//"+n.Name))
		if n.IsLeaf() && n.IsSetValued() {
			out = append(out, xpath.MustParse(fmt.Sprintf("//%s[%s >= \"m\"]/%s", n.ElementParent().Name, n.Name, n.Name)))
		}
		if p := n.ElementParent(); p != nil && n.IsLeaf() && !n.IsSetValued() {
			out = append(out, xpath.MustParse(fmt.Sprintf("//%s[%s = \"x\"]", p.Name, n.Name)))
		}
	}
	for name, k := range names {
		if k > 1 {
			out = append(out, xpath.MustParse("//"+name))
		}
	}
	return out
}

// memoTrees lists the schema, every single transformation of it, and
// every transformation of each of those that composes with it: the
// mappings a search moves between.
func memoTrees(base *schema.Tree, doc *xmlgen.Doc) []*schema.Tree {
	col := xmlgen.CollectStats(base, doc)
	trees := []*schema.Tree{base}
	for _, t1 := range transform.EnumerateAll(base, col) {
		next, err := t1.Apply(base)
		if err != nil {
			continue
		}
		trees = append(trees, next)
		for _, t2 := range transform.EnumerateAll(next, col) {
			if t2.Subsumed() && t1.Subsumed() {
				continue
			}
			if nn, err := t2.Apply(next); err == nil {
				trees = append(trees, nn)
			}
		}
	}
	return trees
}

// TestMemoMatchesFreshTranslation: one Memo translates every query
// under a sequence of mappings a transformation or two apart, so each
// lookup weighs the entries other mappings left, and every answer it
// gives equals a fresh Translate (the same SQL, or a refusal where
// Translate refuses).
func TestMemoMatchesFreshTranslation(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree func() *schema.Tree
		doc  *xmlgen.Doc
	}{
		{"dblp", schema.DBLP, xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 150, Books: 20, Seed: 43})},
		{"movie", schema.Movie, xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 150, Seed: 44})},
	} {
		base := tc.tree()
		queries := memoQueries(t, base, tc.doc)
		trees := memoTrees(base, tc.doc)
		memo := NewMemo(nil)
		var reused int
		for ti, tree := range trees {
			m, err := shred.Compile(tree)
			if err != nil {
				continue
			}
			for _, q := range queries {
				want, werr := Translate(m, q)
				got, gerr := memo.Translate(m, q)
				switch {
				case (werr == nil) != (gerr == nil):
					t.Fatalf("%s tree %d %s: memo error %v, fresh error %v", tc.name, ti, q, gerr, werr)
				case werr != nil:
					continue
				case got.SQL() != want.SQL():
					t.Fatalf("%s tree %d %s:\n memo  %s\n fresh %s", tc.name, ti, q, got.SQL(), want.SQL())
				}
				if got != want {
					reused++
				}
			}
		}
		t.Logf("%s: %d mappings × %d queries, %d answers reused from another mapping", tc.name, len(trees), len(queries), reused)
	}
}

// witnessTree builds r(h*(k, content...)) with r and h annotated, then
// gives the named elements the annotations in anns.
func witnessTree(anns map[string]string, content ...*schema.Node) *schema.Tree {
	h := schema.Elem("h", schema.Seq(append([]*schema.Node{schema.Leaf("k", schema.BaseString)}, content...)...))
	tree := schema.NewTree(schema.Elem("r", schema.Rep(h)))
	tree.Root.Annotation, h.Annotation = "r", "h"
	for name, ann := range anns {
		for _, n := range tree.ElementsNamed(name) {
			n.Annotation = ann
		}
	}
	return tree
}

// TestMemoTellsMappingsApart: for each kind of read a Memo keeps, two
// mappings that answer every other read of a query alike and that read
// differently, so the second mapping's SQL (or refusal) differs from the
// first's. The Memo translates the query under the first and must then
// answer the second as a fresh Translate does; a key without that read
// would hand back the first mapping's SQL.
func TestMemoTellsMappingsApart(t *testing.T) {
	leaf := func(name string) *schema.Node { return schema.Leaf(name, schema.BaseString) }
	bx := func() *schema.Node { return schema.Elem("b", leaf("x")) }
	cx := func() *schema.Node { return schema.Elem("c", leaf("x")) }
	options := func(dist int) *schema.Tree {
		tree := witnessTree(map[string]string{"e": "e"}, schema.Rep(schema.Elem("e", schema.Seq(
			schema.Opt(schema.Elem("o", leaf("l"))), schema.Opt(schema.Elem("o", leaf("m")))))))
		e := tree.ElementsNamed("e")[0]
		e.Distributions = []schema.Distribution{{Optionals: []int{tree.ElementsNamed("o")[dist].ID}}}
		return tree
	}
	merged := func(anns map[string]string) *schema.Tree {
		anns["a"], anns["b"] = "l", "l"
		tree := witnessTree(anns,
			schema.Elem("p", schema.Rep(schema.TypedLeaf("a", schema.BaseString, "T"))),
			schema.Elem("q", schema.Rep(schema.TypedLeaf("b", schema.BaseString, "T"))))
		tree.ElementsNamed("a")[0].SplitCount = 2
		return tree
	}
	comm := func(tree *schema.Tree) *schema.Tree {
		seq := tree.ElementsNamed("b")[0].Parent
		next, err := transform.Transformation{Kind: transform.Comm, Node: seq.ID, Pos: 1}.Apply(tree)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	for _, tc := range []struct {
		read  string
		query string
		a, b  *schema.Tree
	}{
		// b/x resolves to the node c/x has in the other tree, which
		// holds the column named x there too.
		{"relative path", `//h/(b/x)`, witnessTree(nil, bx(), cx()), witnessTree(nil, cx(), bx())},
		// Swapping b and c renames the two x columns.
		{"column", `//h/(b/x)`, witnessTree(nil, bx(), cx()), comm(witnessTree(nil, bx(), cx()))},
		// The partitions keep their names (both optionals are named o),
		// but the one without o holds l only when o is the other one.
		{"leaf of a partition", `//h/(e/o/l)`, options(0), options(1)},
		// Outlining g makes v a grandchild of h: refused.
		{"parent of a relation", `//h/(g/v)`,
			witnessTree(map[string]string{"v": "v"}, schema.Elem("g", schema.Rep(leaf("v")))),
			witnessTree(map[string]string{"v": "v", "g": "g"}, schema.Elem("g", schema.Rep(leaf("v"))))},
		// a and b share relation l, which h parents through b in the
		// first tree and through a in the second, where a's split
		// columns move into h.
		{"homes", `//h/(p/a)`, merged(map[string]string{"p": "p"}), merged(map[string]string{"q": "q"})},
	} {
		q := xpath.MustParse(tc.query)
		ma, mb := compile(t, tc.a), compile(t, tc.b)
		first, err := Translate(ma, q)
		if err != nil {
			t.Fatalf("%s: first mapping: %v", tc.read, err)
		}
		want, werr := Translate(mb, q)
		if werr == nil && want.SQL() == first.SQL() {
			t.Fatalf("%s: the mappings translate %s alike: %s", tc.read, tc.query, want.SQL())
		}
		memo := NewMemo(nil)
		if _, err := memo.Translate(ma, q); err != nil {
			t.Fatalf("%s: %v", tc.read, err)
		}
		got, gerr := memo.Translate(mb, q)
		switch {
		case werr != nil && gerr == nil:
			t.Errorf("%s: memo answered %s where Translate refuses: %v", tc.read, got.SQL(), werr)
		case werr == nil && (gerr != nil || got.SQL() != want.SQL()):
			t.Errorf("%s: memo answered %v, %v\n want %s", tc.read, got, gerr, want.SQL())
		}
	}
}
