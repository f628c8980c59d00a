package shred_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/shred"
	"repro/internal/transform"
	"repro/internal/xmlgen"
)

// FuzzShredMatchesReference draws a random schema and document from the
// seed, applies up to three random transformations to the hybrid
// mapping, and requires Shred to return the reference shredder's error
// text or bit-identical tables. Without -fuzz the checked-in corpus
// under testdata/fuzz/FuzzShredMatchesReference runs as regular tests.
func FuzzShredMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		base := difftest.RandomSchema(r)
		doc, err := difftest.RandomDoc(base, r, 1+r.Intn(6))
		if err != nil {
			t.Skip(err)
		}
		col := xmlgen.CollectStats(base, doc)
		tree := base.Clone()
		for steps := r.Intn(4); steps > 0; steps-- {
			cands := transform.EnumerateAll(tree, col)
			if len(cands) == 0 {
				break
			}
			if next, err := cands[r.Intn(len(cands))].Apply(tree); err == nil {
				tree = next
			}
		}
		m, err := shred.Compile(tree)
		if err != nil {
			t.Skip(err)
		}
		want, werr := shred.RefShred(m, doc)
		got, gerr := shred.Shred(m, doc)
		if werr != nil || gerr != nil {
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("Shred error %v, reference %v", gerr, werr)
			}
			return
		}
		if d := shred.DiffDatabases(want, got); d != "" {
			t.Fatal(d)
		}
	})
}
