package translate

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/transform"
	"repro/internal/workload"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// TestEmittedQueriesPassTheEngineDoor: the engine runs only the plan
// shapes the stack emits and refuses every other at Prepare (a predicate
// kind sqlast does not define, an EXISTS without a value column, an
// OR-or-EXISTS reading a second table, a literal typed unlike its
// column). So every query translate emits for the four StandardParams
// workloads — on DBLP and Movie, under hybrid inlining and under each
// single transformation transform.EnumerateAll lists — must plan and
// prepare over the shredded data. A translator change that would trip
// the door fails here, where the predicate is made.
func TestEmittedQueriesPassTheEngineDoor(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree func() *schema.Tree
		doc  *xmlgen.Doc
	}{
		{"dblp", schema.DBLP, xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 150, Books: 20, Seed: 43})},
		{"movie", schema.Movie, xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 150, Seed: 44})},
	} {
		base := tc.tree()
		col := xmlgen.CollectStats(base, tc.doc)
		var queries []workload.Query
		for _, p := range workload.StandardParams(5, 45) {
			w, err := workload.Generate(base, col, p)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.Name, err)
			}
			queries = append(queries, w.Queries...)
		}
		trees := map[string]*schema.Tree{"hybrid inlining": base}
		for _, tr := range transform.EnumerateAll(base, col) {
			if next, err := tr.Apply(base); err == nil {
				trees[tr.Key()] = next
			}
			if tr.Kind == transform.RepSplit {
				// The workloads may select on no set-valued leaf: select on
				// each one a repetition split applies to, with a string and
				// a number literal, so a split mapping emits OR-or-EXISTS.
				leaf := base.Node(tr.Node)
				for _, lit := range []string{`"m"`, "3"} {
					xp := fmt.Sprintf("//%s[%s >= %s]/%s", leaf.ElementParent().Name, leaf.Name, lit, leaf.Name)
					queries = append(queries, workload.Query{XPath: xpath.MustParse(xp), Weight: 1})
				}
			}
		}
		kinds := map[sqlast.PredKind]int{}
		for name, tree := range trees {
			label := tc.name + " " + name
			m := compile(t, tree)
			db, err := shred.Shred(m, tc.doc)
			if err != nil {
				t.Fatalf("%s: shred: %v", label, err)
			}
			b, err := engine.Build(db, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			opt := optimizer.New(shred.DeriveStats(m, col))
			for _, wq := range queries {
				q, err := Translate(m, wq.XPath)
				var u *Unsupported
				if errors.As(err, &u) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %s: %v", label, wq.XPath, err)
				}
				for _, s := range q.Branches {
					for _, p := range s.Where {
						kinds[p.Kind]++
					}
				}
				plan, err := opt.PlanQuery(q, nil)
				if err != nil {
					t.Fatalf("%s: %s: plan: %v", label, wq.XPath, err)
				}
				if _, err := engine.Prepare(b, plan); err != nil {
					t.Errorf("%s: %s: %v", label, wq.XPath, err)
				}
			}
		}
		t.Logf("%s: %d mappings, %d queries each; predicates prepared: %d compare, %d join, %d EXISTS, %d OR-or-EXISTS",
			tc.name, len(trees), len(queries), kinds[sqlast.PredCompare], kinds[sqlast.PredJoin], kinds[sqlast.PredExists], kinds[sqlast.PredOrExists])
	}
}
