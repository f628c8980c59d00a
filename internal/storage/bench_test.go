package storage

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
)

// benchDB is the table the append benchmarks append to: 20 000 rows of
// one wide mixed-type table.
func benchDB() *rel.Database {
	t := rel.NewTable("fact", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "k", Typ: rel.TString},
		{Name: "v", Typ: rel.TFloat, Nullable: true},
		{Name: "n", Typ: rel.TInt, Nullable: true},
	})
	row := make([]rel.Value, 5)
	for i := 0; i < 20000; i++ {
		row[0] = rel.Int(int64(i))
		row[1] = rel.NullOf(rel.TInt)
		row[2] = rel.Str(fmt.Sprintf("key-%d", i%500))
		if i%7 == 0 {
			row[3] = rel.NullOf(rel.TFloat)
		} else {
			row[3] = rel.Float(math.Sqrt(float64(i)))
		}
		row[4] = rel.Int(int64(i % 97))
		t.AppendRow(row)
	}
	db := rel.NewDatabase()
	db.Add(t)
	return db
}

// benchStore saves the bench database once and returns the store dir.
func benchStore(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	cfg := &physical.Config{
		Indexes: []*physical.Index{{Name: "ix_fact_k", Table: "fact", Key: []string{"k"}}},
	}
	built, err := engine.Build(benchDB(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Save(dir, built, Options{}); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchAppendRow(i int) []rel.Value {
	return []rel.Value{
		rel.Int(int64(1 << 30)), rel.NullOf(rel.TInt),
		rel.Str(fmt.Sprintf("key-%d", i%500)), rel.Float(float64(i)), rel.Int(int64(i % 97)),
	}
}

// BenchmarkAppendSingle is one durable row per op: each append pays a
// full redo fsync.
func BenchmarkAppendSingle(b *testing.B) {
	st, err := Open(benchStore(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Table("fact"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append("fact", benchAppendRow(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendBatch100 is 100 durable rows per op under one group
// commit; benchguard divides by 100 and requires the per-row cost to
// stay under 0.80 of the single-append path's.
func BenchmarkAppendBatch100(b *testing.B) {
	st, err := Open(benchStore(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Table("fact"); err != nil {
		b.Fatal(err)
	}
	rows := make([][]rel.Value, 100)
	for i := range rows {
		rows[i] = benchAppendRow(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendBatch("fact", rows); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanStore saves the scanDB fixture once and returns its dir plus
// total data bytes from the manifest — the denominators of the
// chunk-scan residency metrics.
func benchScanStore(b *testing.B) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	built, err := engine.Build(scanDB(8192), nil)
	if err != nil {
		b.Fatal(err)
	}
	man, err := Save(dir, built, Options{ChunkRows: 256})
	if err != nil {
		b.Fatal(err)
	}
	var data int64
	for i := range man.Tables {
		data += man.Tables[i].Bytes
	}
	return dir, data
}

// benchScanPlan plans the filtered-scan query from a throwaway
// assembled open, so the measured store's pager stays untouched.
func benchScanPlan(b *testing.B, dir string) *optimizer.Plan {
	b.Helper()
	oracle, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer oracle.Close()
	db, err := oracle.Database()
	if err != nil {
		b.Fatal(err)
	}
	return scanPlan(b, db, scanQueries()[0])
}

// BenchmarkChunkScanQuery executes a driver-stage scan query through
// PagedBuilt under a budget a quarter of the data: every execution
// faults, filters, and releases chunks through the pager. Beyond
// ns/op it reports peak_over_bound — the pager's resident high-water
// mark over the contract bound (budget + one chunk per concurrent
// holder), which benchguard requires to stay at or below 1 — and
// peak_over_data, how small the scan's footprint is relative to the
// dataset.
func BenchmarkChunkScanQuery(b *testing.B) {
	dir, data := benchScanStore(b)
	plan := benchScanPlan(b, dir)
	budget := data / 4
	s, err := Open(dir, Options{MemBudgetBytes: budget})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedBuilt()
	if err != nil {
		b.Fatal(err)
	}
	pp, err := paged.Prepared(plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pp.ExecuteContextWorkers(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bound := budget + 2*maxChunkBytes(b, s) // serial: one pin + one in-flight load
	b.ReportMetric(float64(s.pager.peakBytes())/float64(bound), "peak_over_bound")
	b.ReportMetric(float64(s.pager.peakBytes())/float64(data), "peak_over_data")
}

// BenchmarkChunkFault measures one whole-chunk fault — open, read the
// frame, verify, decode and validate every column, admit — on a
// 4096-row chunk of the scanDB fixture, invalidated before each fetch
// so every one faults. Its allocs/op is the fault's residue.
func BenchmarkChunkFault(b *testing.B) {
	dir := b.TempDir()
	built, err := engine.Build(scanDB(DefaultChunkRows), nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Save(dir, built, Options{}); err != nil {
		b.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	cs, err := s.ChunkScan("big")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pager.invalidate("big")
		_, release, err := cs.Chunk(0)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}
