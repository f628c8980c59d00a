package stats_test

import (
	"sync"
	"testing"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/xmlgen"
)

// dblpCorpus is a DBLP document with its schema, shredded under
// hybrid inlining.
type dblpCorpus struct {
	tree *schema.Tree
	doc  *xmlgen.Doc
	db   *rel.Database
}

// dblpScale1 is DBLP at the default (scale 1) sizing, generated once
// per test binary.
var dblpScale1 = sync.OnceValue(func() dblpCorpus {
	tree := schema.DBLP()
	doc := xmlgen.GenerateDBLP(tree, xmlgen.DefaultDBLPOptions())
	m, err := shred.Compile(tree)
	if err != nil {
		panic(err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		panic(err)
	}
	return dblpCorpus{tree, doc, db}
})

// Sinks keep the benchmarked results live.
var (
	tableSink *stats.TableStats
	collSink  *stats.Collection
)

// BenchmarkFromTable: the statistics a store registration collects,
// every table of DBLP scale 1 under hybrid inlining.
func BenchmarkFromTable(b *testing.B) {
	db := dblpScale1().db
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range db.Tables() {
			tableSink = stats.FromTable(t)
		}
	}
}

// BenchmarkCollectStats: the advisor's document statistics over DBLP
// scale 1.
func BenchmarkCollectStats(b *testing.B) {
	c := dblpScale1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collSink = xmlgen.CollectStats(c.tree, c.doc)
	}
}
