package storage

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmlgen"
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
// stay under 0.80 of the single-append path's. redo_B/row is the redo
// log's size after the run, less its header, per appended row.
func BenchmarkAppendBatch100(b *testing.B) {
	dir := benchStore(b)
	st, err := Open(dir, Options{})
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
	b.StopTimer()
	fi, err := os.Stat(filepath.Join(dir, RedoName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()-redoHeaderSize)/float64(len(rows)*b.N), "redo_B/row")
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
	built, err := oracle.Built()
	if err != nil {
		b.Fatal(err)
	}
	return scanPlan(b, built.DB, scanQueries()[0])
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

// dblpBuilt is DBLP at scale 1 (20 000 inproceedings, 2 000 books)
// shredded under hybrid inlining with no physical structures: the load
// the write-path benchmarks save, fold into, and assemble.
var dblpBuilt = sync.OnceValues(func() (*engine.Built, error) {
	tree := schema.DBLP()
	m, err := shred.Compile(tree)
	if err != nil {
		return nil, err
	}
	db, err := shred.Shred(m, xmlgen.GenerateDBLP(tree, xmlgen.DefaultDBLPOptions()))
	if err != nil {
		return nil, err
	}
	return engine.Build(db, nil)
})

// benchDBLPStore saves dblpBuilt into a fresh directory.
func benchDBLPStore(b testing.TB) string {
	b.Helper()
	built, err := dblpBuilt()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := Save(dir, built, Options{}); err != nil {
		b.Fatal(err)
	}
	return dir
}

// tailRow is row i of a deterministic append stream for a table with
// these columns: ids past any generated one, numbers and strings drawn
// from small ranges so the strings repeat within a chunk.
func tailRow(cols []rel.Column, i int) []rel.Value {
	row := make([]rel.Value, len(cols))
	x := uint64(i)*0x9E3779B97F4A7C15 + 1
	for c, col := range cols {
		x ^= x >> 31
		x *= 0x94D049BB133111EB
		switch {
		case col.Name == rel.IDColumn:
			row[c] = rel.Int(1<<40 + int64(i))
		case col.Typ == rel.TInt:
			row[c] = rel.Int(int64(x % 20_000))
		case col.Typ == rel.TFloat:
			row[c] = rel.Float(float64(x%100_000) / 100)
		default:
			row[c] = rel.Str(fmt.Sprintf("appended %d", x%50_000))
		}
	}
	return row
}

// BenchmarkSave is the bulk load's write: every DBLP table encoded and
// written (and fsynced) as a chunked segment, into one directory that
// each op overwrites.
func BenchmarkSave(b *testing.B) {
	built, err := dblpBuilt()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Save(dir, built, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact folds a 50 000-row redo tail into DBLP's author
// table. Each op saves a fresh store and appends the tail untimed; the
// timed part is the one Compact.
func BenchmarkCompact(b *testing.B) {
	const tail, batch = 50_000, 1_000
	built, err := dblpBuilt()
	if err != nil {
		b.Fatal(err)
	}
	cols := built.DB.Table("author").Columns
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(benchDBLPStore(b), Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]rel.Value, batch)
		for lo := 0; lo < tail; lo += batch {
			for j := range rows {
				rows[j] = tailRow(cols, lo+j)
			}
			if err := st.AppendBatch("author", rows); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// appendAuthorTail appends rows rows to DBLP's author table in 1 000-row
// AppendBatch calls and returns the heap the store holds for them, as
// the live heap after a GC grew over the appends.
func appendAuthorTail(b *testing.B, st *Store, cols []rel.Column, rows int) uint64 {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	batch := make([][]rel.Value, 1_000)
	for lo := 0; lo < rows; lo += len(batch) {
		for j := range batch {
			batch[j] = tailRow(cols, lo+j)
		}
		if err := st.AppendBatch("author", batch); err != nil {
			b.Fatal(err)
		}
	}
	clear(batch)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
}

// BenchmarkChunkScanTail is one ChunkScan creation over DBLP's author
// table with a redo tail of 5 000 or 50 000 rows, appended untimed. It
// also reports the heap the tail holds (tail_heap_MB).
func BenchmarkChunkScanTail(b *testing.B) {
	built, err := dblpBuilt()
	if err != nil {
		b.Fatal(err)
	}
	cols := built.DB.Table("author").Columns
	for _, rows := range []int{5_000, 50_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			st, err := Open(benchDBLPStore(b), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			heap := appendAuthorTail(b, st, cols, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.ChunkScan("author"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(heap)/1e6, "tail_heap_MB")
		})
	}
}

// BenchmarkAppendCompactCycle is the write path of an ingest cycle on
// DBLP's author table: 50 AppendBatch calls of 1 000 rows, then the
// Compact that folds them, timed together so that work moved from the
// fold into the commits still counts. Each op starts from a freshly
// saved store, untimed.
func BenchmarkAppendCompactCycle(b *testing.B) {
	const tail, batch = 50_000, 1_000
	built, err := dblpBuilt()
	if err != nil {
		b.Fatal(err)
	}
	cols := built.DB.Table("author").Columns
	batches := make([][][]rel.Value, tail/batch)
	for k := range batches {
		batches[k] = make([][]rel.Value, batch)
		for j := range batches[k] {
			batches[k][j] = tailRow(cols, k*batch+j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(benchDBLPStore(b), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, rows := range batches {
			if err := st.AppendBatch("author", rows); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreTable assembles every DBLP table from a freshly opened
// store under a budget of a quarter of the data: each op reads, decodes
// and validates every chunk straight from the segment files (the pager,
// which the budget governs, is not involved) and concatenates the
// fragments into whole tables (rel.Concat).
func BenchmarkStoreTable(b *testing.B) {
	dir := benchDBLPStore(b)
	probe, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var data int64
	for _, e := range probe.Manifest().Tables {
		data += e.Bytes
	}
	probe.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{MemBudgetBytes: data / 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range st.Manifest().Tables {
			if _, err := st.Table(e.Name); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
	}
}
