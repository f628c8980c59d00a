package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// scanDB builds a parent/child database big enough to span many chunks
// at 64 rows/chunk, with the value shapes that stress chunk-local
// kernels: repeated strings, strings that read as numbers in a few
// chunks only (so chunk dictionaries differ), NULLs, and non-finite
// floats.
func scanDB(nrows int) *rel.Database {
	db := rel.NewDatabase()
	big := rel.NewTable("big", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true, LeafID: 3},
		{Name: "val", Typ: rel.TFloat, Nullable: true, LeafID: 4},
		{Name: "n", Typ: rel.TInt, Nullable: true, LeafID: 5},
	})
	for i := 0; i < nrows; i++ {
		tag := rel.Str(fmt.Sprintf("tag-%02d", i%7))
		switch {
		case i%13 == 0:
			tag = rel.NullOf(rel.TString)
		case i%97 == 0:
			tag = rel.Str(fmt.Sprintf("%08d", i))
		}
		val := rel.Float(float64(i) / 3)
		switch {
		case i%31 == 0:
			val = rel.Float(math.NaN())
		case i%47 == 0:
			val = rel.Float(math.Copysign(0, -1))
		case i%11 == 0:
			val = rel.NullOf(rel.TFloat)
		}
		n := rel.Int(int64(i % 100))
		if i%17 == 0 {
			n = rel.NullOf(rel.TInt)
		}
		big.AppendRow([]rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), tag, val, n})
	}
	kid := rel.NewTable("kid", []rel.Column{
		{Name: rel.IDColumn, Typ: rel.TInt},
		{Name: rel.PIDColumn, Typ: rel.TInt},
		{Name: "word", Typ: rel.TString, LeafID: 7},
	})
	kid.Parent = "big"
	for i := 0; i < nrows/2; i++ {
		kid.AppendRow([]rel.Value{
			rel.Int(int64(nrows + i)), rel.Int(int64((i * 5) % nrows)),
			rel.Str(fmt.Sprintf("w%d", i%19)),
		})
	}
	db.Add(big)
	db.Add(kid)
	return db
}

// scanQueries drive the chunk-scan path end to end: a filtered scan
// with typed int + dictionary string kernels, a scan over the float
// column with its NaNs and NULLs, a hash-join whose
// probe side is a driver-stage chunk scan, and — last — a union of two
// filtered scans of the same table.
func scanQueries() []*sqlast.Query {
	bigCols := []sqlast.SelectItem{
		{Col: &sqlast.ColRef{Table: "big", Column: rel.IDColumn}, As: "ID"},
		{Col: &sqlast.ColRef{Table: "big", Column: "tag"}, As: "tag"},
	}
	return []*sqlast.Query{
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: rel.IDColumn}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "big", Column: "tag"}, As: "tag"},
			},
			From: []string{"big"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredCompare, Op: sqlast.OpEq,
					Col: sqlast.ColRef{Table: "big", Column: "tag"}, Value: rel.Str("tag-03")},
				{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
					Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(40)},
			},
		}}, OrderBy: "ID"},
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: rel.IDColumn}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "big", Column: "val"}, As: "val"},
			},
			From: []string{"big"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
					Col: sqlast.ColRef{Table: "big", Column: "val"}, Value: rel.Float(25)},
			},
		}}, OrderBy: "ID"},
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: rel.IDColumn}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "kid", Column: "word"}, As: "word"},
			},
			From: []string{"big", "kid"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredJoin,
					Left:  sqlast.ColRef{Table: "kid", Column: rel.PIDColumn},
					Right: sqlast.ColRef{Table: "big", Column: rel.IDColumn}},
				{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
					Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(50)},
			},
		}}, OrderBy: "ID"},
		{Branches: []*sqlast.Select{{
			Items: bigCols,
			From:  []string{"big"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
				Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(90)}},
		}, {
			Items: bigCols,
			From:  []string{"big"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpEq,
				Col: sqlast.ColRef{Table: "big", Column: "tag"}, Value: rel.Str("tag-01")}},
		}}, OrderBy: "ID"},
	}
}

// scanPlan plans a query from assembled-table statistics. Plans are
// Built-independent, so one plan executes against both the assembled
// oracle and the paged Built.
func scanPlan(t testing.TB, db *rel.Database, q *sqlast.Query) *optimizer.Plan {
	t.Helper()
	plan, err := optimizer.New(stats.FromDatabase(db)).PlanQuery(q, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// requireSameResult compares two executions bit for bit: columns, row
// order, every value under BitEqual, and the work counters.
func requireSameResult(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d cols, want %d", label, len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: col %d = %q, want %q", label, i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for r := range got.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			t.Fatalf("%s: row %d width %d, want %d", label, r, len(got.Rows[r]), len(want.Rows[r]))
		}
		for c := range got.Rows[r] {
			if !got.Rows[r][c].BitEqual(want.Rows[r][c]) {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, r, c, got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// savedScanStore persists scanDB under a flat design with 64-row chunks
// and returns the directory.
func savedScanStore(t *testing.T, nrows int) string {
	t.Helper()
	dir := t.TempDir()
	b, err := engine.Build(scanDB(nrows), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, b, Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// maxChunkBytes returns the largest on-disk chunk size across all
// chunked tables — the pager's admission unit, and therefore the slack
// term in the peak-residency bound.
func maxChunkBytes(t testing.TB, s *Store) int64 {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for i := range s.man.Tables {
		e := &s.man.Tables[i]
		if e.ChunkRows <= 0 {
			continue
		}
		d, err := s.chunkedDirLocked(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range d.Chunks {
			if c.Size > max {
				max = c.Size
			}
		}
	}
	return max
}

// scanRows reads every chunk of cs in order into a table the caller
// owns, with the name, parent and columns of the scanned table.
func scanRows(cs *ChunkScan) (*rel.Table, error) {
	out := rel.NewTable(cs.table, cs.Columns())
	out.Parent = cs.d.Parent
	row := make([]rel.Value, len(cs.Columns()))
	for k := 0; k < cs.NumChunks(); k++ {
		frag, release, err := cs.Chunk(k)
		if err != nil {
			return nil, err
		}
		for r := 0; r < frag.RowCount(); r++ {
			for c := range row {
				row[c] = frag.ValueAt(r, c)
			}
			out.AppendRow(row)
		}
		release()
	}
	return out, nil
}

// storeTables assembles every table of s, one Table call each, into a
// database the test owns.
func storeTables(t *testing.T, s *Store) *rel.Database {
	t.Helper()
	db := rel.NewDatabase()
	for _, e := range s.Manifest().Tables {
		tb, err := s.Table(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tb)
	}
	return db
}

// TestChunkHitAllocatesNothing: on a warm pager, acquiring and
// releasing a chunk is a lock, a map lookup and a pin — the cached
// table is handed out as is.
func TestChunkHitAllocatesNothing(t *testing.T) {
	s, err := Open(savedScanStore(t, 640), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	acquire := func(k int) *rel.Table {
		frag, release, err := cs.Chunk(k)
		if err != nil {
			t.Fatal(err)
		}
		release()
		return frag
	}
	for k := 0; k < cs.NumChunks(); k++ {
		acquire(k) // warm: every chunk faults once
	}
	for k := 0; k < cs.NumChunks(); k++ {
		first := acquire(k)
		if allocs := testing.AllocsPerRun(50, func() {
			if acquire(k) != first {
				t.Fatal("a hit served a different table than the one cached")
			}
		}); allocs != 0 {
			t.Errorf("chunk %d: a pager hit allocates %.0f times, want 0", k, allocs)
		}
	}
}

// TestAssemblyBypassesPager: assembling tables reads the segment files
// and leaves the pager, the scans' cache, untouched. On an unbudgeted
// store, where every faulted chunk would stay resident, Built and a
// Table of every table leave no chunk resident and count no pager hit
// or fault, while storage.segment.bytes_read counts each directory once
// and every chunk byte once per assembly.
func TestAssemblyBypassesPager(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(savedScanStore(t, 640), Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Built(); err != nil {
		t.Fatal(err)
	}
	storeTables(t, s)
	if _, chunks := s.ResidentBytes(); chunks != 0 {
		t.Errorf("assembly left %d bytes of chunks resident, want 0", chunks)
	}
	for _, name := range []string{"storage.pager.faults", "storage.pager.hits"} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("assembly counted %s %d, want 0", name, v)
		}
	}
	var want int64
	for _, e := range s.Manifest().Tables {
		want += e.Dir + 2*(e.Size-e.Dir)
	}
	if got := reg.Counter("storage.segment.bytes_read").Value(); got != want {
		t.Errorf("storage.segment.bytes_read %d, want %d (each directory once, every chunk twice)", got, want)
	}
}

// TestAssemblyKeepsScanWorkingSet: under a budget, assembling tables
// evicts nothing a scan keeps resident. Over DBLP at scale 1 under a
// quarter of its data, a chunk scan of the one-chunk editor table, then
// a Table of every other table, then the same scan again: the second
// scan faults nothing.
func TestAssemblyKeepsScanWorkingSet(t *testing.T) {
	dir := benchDBLPStore(t)
	reg := obs.NewRegistry()
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var data int64
	for _, e := range probe.Manifest().Tables {
		data += e.Bytes
	}
	probe.Close()
	s, err := Open(dir, Options{MemBudgetBytes: data / 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pass := func() int {
		cs, err := s.ChunkScan("editor")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < cs.NumChunks(); k++ {
			_, release, err := cs.Chunk(k)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		return cs.NumChunks()
	}
	if n := pass(); n != 1 {
		t.Fatalf("fixture: editor has %d chunks, want 1", n)
	}
	faults := reg.Counter("storage.pager.faults")
	for _, e := range s.Manifest().Tables {
		if e.Name == "editor" {
			continue
		}
		if _, err := s.Table(e.Name); err != nil {
			t.Fatal(err)
		}
	}
	before := faults.Value()
	pass()
	if f := faults.Value() - before; f != 0 {
		t.Fatalf("the second scan of editor faulted %d times after assembling the other tables, want 0", f)
	}
}

// TestPagedBuiltMatchesAssembledUnderBudget is the PR's acceptance
// test: over a dataset at least 4x the memory budget, driver-stage
// scan queries through PagedBuilt return results bit-identical to the
// assembled oracle (and the row-at-a-time reference) at every tested
// worker count, while the pager's resident high-water mark stays
// within budget + one chunk per concurrent holder.
func TestPagedBuiltMatchesAssembledUnderBudget(t *testing.T) {
	const nrows = 4096
	dir := savedScanStore(t, nrows)

	oracleStore, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracleStore.Close()
	oracle, err := oracleStore.Built()
	if err != nil {
		t.Fatal(err)
	}
	db := oracle.DB

	var dataBytes int64
	for i := range oracleStore.Manifest().Tables {
		dataBytes += oracleStore.Manifest().Tables[i].Bytes
	}
	budget := dataBytes / 4
	if budget <= 0 {
		t.Fatalf("fixture too small: %d data bytes", dataBytes)
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	maxWorkers := workerCounts[len(workerCounts)-1]

	for _, memBudget := range []int64{0, budget} {
		name := "unlimited"
		if memBudget > 0 {
			name = fmt.Sprintf("budget_%dB_data_%dB", memBudget, dataBytes)
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(dir, Options{MemBudgetBytes: memBudget, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			paged, err := s.PagedBuilt()
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range scanQueries() {
				plan := scanPlan(t, db, q)
				want, err := engine.ExecuteReference(oracle, plan)
				if err != nil {
					t.Fatalf("query %d: reference: %v", qi, err)
				}
				asm, err := engine.Execute(oracle, plan)
				if err != nil {
					t.Fatalf("query %d: assembled: %v", qi, err)
				}
				requireSameResult(t, fmt.Sprintf("query %d assembled-vs-reference", qi), asm, want)

				pp, err := paged.Prepared(plan)
				if err != nil {
					t.Fatalf("query %d: prepare paged: %v", qi, err)
				}
				for _, workers := range workerCounts {
					for run := 0; run < 2; run++ {
						got, err := pp.ExecuteContextWorkers(context.Background(), workers)
						if err != nil {
							t.Fatalf("query %d workers %d: %v", qi, workers, err)
						}
						requireSameResult(t, fmt.Sprintf("query %d workers %d run %d", qi, workers, run), got, want)
					}
				}
			}
			if memBudget > 0 {
				if dataBytes < 4*memBudget {
					t.Fatalf("dataset %dB is under 4x budget %dB; fixture lost its point", dataBytes, memBudget)
				}
				slack := int64(maxWorkers+1) * maxChunkBytes(t, s)
				if pk := s.pager.peakBytes(); pk > memBudget+slack {
					t.Fatalf("pager peak %dB exceeds budget %dB + slack %dB", pk, memBudget, slack)
				}
				if pk := s.pager.peakBytes(); pk == 0 {
					t.Fatal("pager never faulted a chunk; scans did not use the paged path")
				}
			}
		})
	}
}

// TestStoreBuiltsMatchReference pins that both store-backed Builts equal
// the reference executor over an engine.Build oracle on a scan-only plan
// and a scan + hash-join plan at one and two workers. (That serving
// never builds a row view is structural since rel.Table keeps none: see
// the engine's TestRowsCalledOnlyByReference.)
func TestStoreBuiltsMatchReference(t *testing.T) {
	s, err := Open(savedScanStore(t, 1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := storeTables(t, s)
	oracle, err := engine.Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := scanQueries()
	for name, view := range map[string]func() (*engine.Built, error){"Built": s.Built, "PagedBuilt": s.PagedBuilt} {
		b, err := view()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, qi := range []int{0, 2} { // filtered scan; scan + hash join
			plan := scanPlan(t, db, queries[qi])
			want, err := engine.ExecuteReference(oracle, plan)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := b.Prepared(plan)
			if err != nil {
				t.Fatalf("%s query %d: prepare: %v", name, qi, err)
			}
			for _, workers := range []int{1, 2} {
				got, err := pp.ExecuteContextWorkers(context.Background(), workers)
				if err != nil {
					t.Fatalf("%s query %d workers %d: %v", name, qi, workers, err)
				}
				requireSameResult(t, fmt.Sprintf("%s query %d workers %d", name, qi, workers), got, want)
			}
		}
	}
}

// TestPagedFaultsRepeatAtOneWorker pins that one worker is one goroutine
// and that the branches of a union walk a shared table together: a
// two-branch union over an 8-chunk table (saved at DefaultChunkRows, so
// a chunk is a morsel), reopened under a budget of two chunks and
// executed at one worker on a fresh store, reads every chunk exactly
// once — the second branch hits what the first just faulted — with the
// same pager traffic run after run at any GOMAXPROCS, inside budget +
// one chunk.
func TestPagedFaultsRepeatAtOneWorker(t *testing.T) {
	const chunks = 8
	dir := t.TempDir()
	b, err := engine.Build(scanDB(chunks*DefaultChunkRows), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, b, Options{}); err != nil {
		t.Fatal(err)
	}
	queries := scanQueries()
	plan := scanPlan(t, b.DB, queries[len(queries)-1]) // the two-branch union
	if len(plan.Branches) != 2 {
		t.Fatalf("fixture plan has %d branches, want 2", len(plan.Branches))
	}
	want, err := engine.ExecuteReference(b, plan)
	if err != nil {
		t.Fatal(err)
	}

	sizing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxChunk := maxChunkBytes(t, sizing)
	sizing.Close()
	budget := 2 * maxChunk

	// traffic executes the plan once at one worker on a fresh store and
	// returns the pager counters the execution moved.
	names := []string{"storage.pager.faults", "storage.pager.hits", "storage.segment.bytes_read"}
	traffic := func(run int) map[string]int64 {
		reg := obs.NewRegistry()
		s, err := Open(dir, Options{MemBudgetBytes: budget, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		paged, err := s.PagedBuilt()
		if err != nil {
			t.Fatal(err)
		}
		if n := paged.ScanSource("big").NumChunks(); n != chunks {
			t.Fatalf("big has %d chunks, want %d", n, chunks)
		}
		pp, err := paged.Prepared(plan)
		if err != nil {
			t.Fatal(err)
		}
		delta := make(map[string]int64)
		for _, n := range names {
			delta[n] = -reg.Counter(n).Value()
		}
		got, err := pp.ExecuteContextWorkers(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("run %d", run), got, want)
		for _, n := range names {
			delta[n] += reg.Counter(n).Value()
		}
		if pk := s.pager.peakBytes(); pk > budget+maxChunk {
			t.Errorf("run %d: pager peak %dB exceeds budget %dB + one chunk %dB", run, pk, budget, maxChunk)
		}
		return delta
	}
	first, again := traffic(0), traffic(1)
	if first["storage.pager.faults"] != chunks || first["storage.pager.hits"] != chunks {
		t.Errorf("%d faults, %d hits; want %d each (every chunk read once per query, not once per branch)",
			first["storage.pager.faults"], first["storage.pager.hits"], chunks)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("pager traffic differs run to run: %v then %v", first, again)
	}
}

// TestPagedBuiltIncludesRedoTail pins the overlay contract: rows
// appended after Save (living only in the redo log) appear in paged
// scan results exactly as they do in the assembled oracle.
func TestPagedBuiltIncludesRedoTail(t *testing.T) {
	const nrows = 640
	dir := savedScanStore(t, nrows)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Appended rows match query 0's predicates (tag-03, n >= 40), so
	// the overlay chunk must contribute output rows, not just row count.
	for i := 0; i < 23; i++ {
		id := int64(100000 + i)
		if err := s.Append("big", []rel.Value{
			rel.Int(id), rel.NullOf(rel.TInt), rel.Str("tag-03"),
			rel.Float(float64(i)), rel.Int(90),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("kid", []rel.Value{
		rel.Int(200000), rel.Int(100005), rel.Str("tail-word"),
	}); err != nil {
		t.Fatal(err)
	}
	if s.RedoRows() == 0 {
		t.Fatal("appends did not land in the redo log")
	}

	oracle, err := s.Built()
	if err != nil {
		t.Fatal(err)
	}
	db := oracle.DB
	paged, err := s.PagedBuilt()
	if err != nil {
		t.Fatal(err)
	}

	cs, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	if cs.RowCount() != nrows+23 {
		t.Fatalf("scan covers %d rows, want %d", cs.RowCount(), nrows+23)
	}
	lo, hi := cs.ChunkSpan(cs.NumChunks() - 1)
	if lo != nrows || hi != nrows+23 {
		t.Fatalf("overlay span [%d,%d), want [%d,%d)", lo, hi, nrows, nrows+23)
	}

	for qi, q := range scanQueries() {
		plan := scanPlan(t, db, q)
		want, err := engine.ExecuteReference(oracle, plan)
		if err != nil {
			t.Fatalf("query %d: reference: %v", qi, err)
		}
		got, err := engine.Execute(paged, plan)
		if err != nil {
			t.Fatalf("query %d: paged: %v", qi, err)
		}
		requireSameResult(t, fmt.Sprintf("query %d with redo tail", qi), got, want)
	}

	// The tail must actually be visible in output: query 0 selects
	// tag-03 rows with n >= 40, which includes every appended big row.
	plan := scanPlan(t, db, scanQueries()[0])
	res, err := engine.Execute(paged, plan)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, row := range res.Rows {
		if v := row[0]; !v.Null && v.Typ == rel.TInt && v.I >= 100000 {
			seen++
		}
	}
	if seen != 23 {
		t.Fatalf("paged scan surfaced %d appended rows, want 23", seen)
	}
}

// TestChunkScanStaleness pins the point-in-time contract: after an
// append to its table a scan serves exactly its creation-time rows, and
// it fails — never serves stale rows — after a compaction and after
// Close.
func TestChunkScanStaleness(t *testing.T) {
	dir := savedScanStore(t, 320)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.ChunkScan("nope"); err == nil {
		t.Fatal("scan of unknown table must fail")
	}

	cs, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	frag, release, err := cs.Chunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := cs.ChunkSpan(0); frag.RowCount() != hi-lo {
		t.Fatalf("chunk 0 has %d rows, span says %d", frag.RowCount(), hi-lo)
	}
	release()
	release() // no pin outstanding: a no-op
	atCreation, err := s.Table("big")
	if err != nil {
		t.Fatal(err)
	}

	// An append to an unrelated table must not invalidate this scan.
	if err := s.Append("kid", []rel.Value{rel.Int(9000), rel.Int(1), rel.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if _, rel2, err := cs.Chunk(0); err != nil {
		t.Fatalf("append to other table staled the scan: %v", err)
	} else {
		rel2()
	}

	// An append to the scanned table does not show in the scan: it
	// serves exactly the rows of a Table taken at its creation.
	if err := s.Append("big", []rel.Value{
		rel.Int(9001), rel.NullOf(rel.TInt), rel.Str("t"), rel.Float(1), rel.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	scanned, err := scanRows(cs)
	if err != nil {
		t.Fatalf("scan after append: %v", err)
	}
	tablesBitEqual(t, scanned, atCreation)

	// A fresh scan sees the new row; compaction stales it in turn.
	cs2, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	if cs2.RowCount() != 321 {
		t.Fatalf("fresh scan covers %d rows, want 321", cs2.RowCount())
	}
	now, err := s.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	if scanned, err = scanRows(cs2); err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, scanned, now)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs2.Chunk(0); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("chunk after compaction: %v, want staleness error", err)
	}

	// Post-compaction scan folds the tail into segment chunks.
	cs3, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	if cs3.RowCount() != 321 || cs3.overlay != nil {
		t.Fatalf("post-compaction scan: %d rows, overlay %v; want 321 rows, no overlay",
			cs3.RowCount(), cs3.overlay != nil)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs3.Chunk(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("chunk after close: %v, want ErrClosed", err)
	}
	if _, err := s.ChunkScan("big"); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after close: %v, want ErrClosed", err)
	}
	if _, err := s.PagedBuilt(); !errors.Is(err, ErrClosed) {
		t.Fatalf("PagedBuilt after close: %v, want ErrClosed", err)
	}
}

// TestPagedBuiltShellStalesOnCompact: a PagedBuilt shell hydrates after
// an append, with its creation-time rows, and once the store compacted
// it fails as its chunk scans do — with ErrStale, before reading
// anything, so storage.read.errors does not move.
func TestPagedBuiltShellStalesOnCompact(t *testing.T) {
	dir := savedScanStore(t, 320)
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	paged, err := s.PagedBuilt()
	if err != nil {
		t.Fatal(err)
	}
	kid, big := paged.DB.Table("kid"), paged.DB.Table("big")
	if kid.Resident() || big.Resident() {
		t.Fatal("PagedBuilt hydrated a shell before any query")
	}
	if err := s.Append("big", []rel.Value{
		rel.Int(9001), rel.NullOf(rel.TInt), rel.Str("t"), rel.Float(1), rel.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := kid.Hydrate(); err != nil {
		t.Fatalf("hydrating after an append: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	readErrs := reg.Counter("storage.read.errors").Value()
	if err := big.Hydrate(); !errors.Is(err, ErrStale) {
		t.Fatalf("hydrating after a compaction: %v, want ErrStale", err)
	}
	if n := reg.Counter("storage.read.errors").Value(); n != readErrs {
		t.Fatalf("stale hydration moved storage.read.errors %d -> %d", readErrs, n)
	}
}

// tailAppendRow is row i of the stream TestChunkScanPinsPrefixUnderAppends
// appends to big: NULL-heavy, with strings both new and already in the
// segment's dictionaries.
func tailAppendRow(i int) []rel.Value {
	row := []rel.Value{rel.Int(int64(100000 + i)), rel.NullOf(rel.TInt),
		rel.NullOf(rel.TString), rel.NullOf(rel.TFloat), rel.NullOf(rel.TInt)}
	if i%3 != 0 {
		row[2] = rel.Str(fmt.Sprintf("tag-%02d", i%11))
	}
	if i%2 == 0 {
		row[3] = rel.Float(float64(i) / 7)
	}
	if i%5 != 0 {
		row[4] = rel.Int(int64(i % 100))
	}
	return row
}

// prefixMismatch describes how tb fails to be oracle's first rows, at
// least base of them, or returns nil when it is.
func prefixMismatch(tb, oracle *rel.Table, base int) error {
	n := tb.RowCount()
	if n < base || n > oracle.RowCount() {
		return fmt.Errorf("%d rows, want %d to %d", n, base, oracle.RowCount())
	}
	if want := oracle.Prefix(n).Bytes(); tb.Bytes() != want {
		return fmt.Errorf("%d rows account %d bytes, want %d", n, tb.Bytes(), want)
	}
	for r := 0; r < n; r++ {
		for c := range tb.Columns {
			if got, want := tb.ValueAt(r, c), oracle.ValueAt(r, c); !got.BitEqual(want) {
				return fmt.Errorf("%d rows: value (%d,%d) is %v, want %v", n, r, c, got, want)
			}
		}
	}
	return nil
}

// TestChunkScanPinsPrefixUnderAppends: while one appender commits small
// batches to big, readers create ChunkScans and call Table. Every scan
// and every table must equal the oracle at some prefix of the append
// history: the saved rows, then the first k appended rows. The segment
// ends in a partial chunk, so the tail merges at a row offset that is no
// multiple of 64.
func TestChunkScanPinsPrefixUnderAppends(t *testing.T) {
	const base, appends, readers = 300, 240, 3
	s, err := Open(savedScanStore(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle, err := s.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		oracle.AppendRow(tailAppendRow(i))
	}

	done := make(chan struct{})
	results := make(chan *rel.Table)
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cs, err := s.ChunkScan("big")
				if err == nil {
					var tb *rel.Table
					if tb, err = scanRows(cs); err == nil {
						results <- tb
						tb, err = s.Table("big")
						results <- tb
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var bad []error
	seen := make(map[int]bool)
	collect := make(chan struct{})
	go func() {
		defer close(collect)
		for tb := range results {
			seen[tb.RowCount()] = true
			if err := prefixMismatch(tb, oracle, base); err != nil {
				bad = append(bad, err)
			}
		}
	}()
	var appendErr error
	for i := 0; i < appends && appendErr == nil; {
		batch := make([][]rel.Value, 0, 1+i%9)
		for ; len(batch) < cap(batch) && i < appends; i++ {
			batch = append(batch, tailAppendRow(i))
		}
		appendErr = s.AppendBatch("big", batch)
	}
	close(done)
	wg.Wait()
	close(results)
	<-collect
	close(errs)
	if appendErr != nil {
		t.Fatalf("append: %v", appendErr)
	}
	for err := range errs {
		t.Fatalf("reader: %v", err)
	}
	if len(bad) > 0 {
		t.Fatalf("%d of the reads are no prefix of the append history; first: %v", len(bad), bad[0])
	}
	t.Logf("reads saw %d distinct prefixes", len(seen))
	final, err := s.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	tablesBitEqual(t, final, oracle)
}

// TestChunkScanNeverServesPreCompactionChunk pins the cache-key epoch
// race: a chunk load that started against the pre-compaction segment
// can finish — and be admitted — after compaction swapped the manifest
// and invalidated the table. The admission lands under the dead file's
// key, so a fresh post-compaction scan of the same table and chunk
// index must fault the new epoch's chunk, never hit the stale one
// (whose row count no longer matches the new chunk span).
func TestChunkScanNeverServesPreCompactionChunk(t *testing.T) {
	dir := savedScanStore(t, 330) // 6 chunks at 64 rows; last holds 10
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Registry: reg, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Capture the pre-compaction segment identity and directory — the
	// state a loader that started before the compaction works from.
	s.mu.Lock()
	oldEntry := *s.man.Table("big")
	oldDir, err := s.chunkedDirLocked(&oldEntry)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	last := len(oldDir.Chunks) - 1

	// Grow the table past the old last-chunk span, then compact. Fail
	// the compaction at the cleanup step — which runs after the manifest
	// rename committed the new epoch and the pager was invalidated — so
	// the dead segment file stays on disk for the stale loader, as in
	// the real race where its bytes were already read.
	for i := 0; i < 20; i++ {
		if err := s.Append("big", []rel.Value{
			rel.Int(int64(9000 + i)), rel.NullOf(rel.TInt), rel.Str("t"), rel.Float(1), rel.Int(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.killCompact = func(step string) error {
		if step == "cleanup" {
			return errors.New("keep the dead segment for the stale loader")
		}
		return nil
	}
	if err := s.Compact(); err == nil {
		t.Fatal("cleanup killpoint did not surface")
	}
	s.killCompact = nil

	// The raced loader completes now, admitting a dead-file chunk after
	// invalidate already swept the table.
	if _, release, err := s.pager.chunkPinned(oldEntry.File, oldDir, last, oldDir.all); err != nil {
		t.Fatal(err)
	} else {
		release()
	}

	cs, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cs.ChunkSpan(last)
	if hi-lo <= oldDir.Chunks[last].Rows {
		t.Fatalf("fixture degenerate: new last chunk %d rows, old %d — spans must differ", hi-lo, oldDir.Chunks[last].Rows)
	}
	faults := reg.Counter("storage.pager.faults").Value()
	frag, release, err := cs.Chunk(last)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if frag.RowCount() != hi-lo {
		t.Fatalf("chunk %d served %d rows, span says %d — stale pre-compaction chunk leaked through the cache",
			last, frag.RowCount(), hi-lo)
	}
	if reg.Counter("storage.pager.faults").Value() != faults+1 {
		t.Fatal("post-compaction chunk came from the cache instead of faulting the new segment")
	}
}

// TestMalformedDesignIsAnError: a physical design reaches engine.Build
// from outside the program — Manifest.Design is JSON — so one that does
// not fit the database is reported, never a panic: an index without a key
// column or with two, a view or a partition over a table without ID/PID,
// a partition over an unknown table or naming an unknown column, a column
// listed twice, a null entry. The keyless and the two-key index are also
// driven the way they would arrive, through a saved manifest and both
// store-backed Builts.
func TestMalformedDesignIsAnError(t *testing.T) {
	db := scanDB(64)
	db.Add(rel.NewTable("flat", []rel.Column{{Name: "a", Typ: rel.TInt}}))
	keyless := &physical.Config{Indexes: []*physical.Index{{Name: "ix_none", Table: "big", Include: []string{"tag"}}}}
	twoKey := &physical.Config{Indexes: []*physical.Index{{Name: "ix_two", Table: "big", Key: []string{"tag", rel.IDColumn}}}}
	for name, tc := range map[string]struct {
		cfg  *physical.Config
		want string
	}{
		"keyless index": {keyless, "has 0 key columns"},
		"two-key index": {twoKey, "has 2 key columns"},
		"view outer without ID": {&physical.Config{Views: []*physical.View{{Name: "v", Outer: "flat", Inner: "kid",
			OuterCols: []string{"a"}, InnerCols: []string{"word"}}}}, "missing"},
		"view inner without PID": {&physical.Config{Views: []*physical.View{{Name: "v", Outer: "big", Inner: "flat",
			OuterCols: []string{"tag"}, InnerCols: []string{"a"}}}}, "missing"},
		"partition without ID/PID": {&physical.Config{Partitions: []*physical.VPartition{{Table: "flat",
			Groups: [][]string{{"a"}}}}}, "no ID/PID"},
		"partition group repeats a key": {&physical.Config{Partitions: []*physical.VPartition{{Table: "big",
			Groups: [][]string{{"tag", rel.IDColumn}}}}}, "twice"},
		"partition over an unknown table": {&physical.Config{Partitions: []*physical.VPartition{{Table: "nope",
			Groups: [][]string{{"tag"}}}}}, "unknown table nope"},
		"partition group names an unknown column": {&physical.Config{Partitions: []*physical.VPartition{{Table: "big",
			Groups: [][]string{{"tag"}, {"nope"}}}}}, "unknown column big.nope"},
		"view lists a column twice": {&physical.Config{Views: []*physical.View{{Name: "v", Outer: "big", Inner: "kid",
			OuterCols: []string{"tag", "tag"}, InnerCols: []string{"word"}}}}, "twice"},
		"null index": {&physical.Config{Indexes: []*physical.Index{nil}}, "null"},
	} {
		b, err := engine.Build(db, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build = %v, %v; want an error mentioning %q", name, b, err, tc.want)
		}
	}

	for design, cfg := range map[string]*physical.Config{"keyless": keyless, "two-key": twoKey} {
		dir := savedScanStore(t, 64)
		mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		man, err := decodeManifest(mb)
		if err != nil {
			t.Fatal(err)
		}
		man.Design = cfg
		if mb, err = encodeManifest(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), mb, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, view := range map[string]func() (*engine.Built, error){"Built": s.Built, "PagedBuilt": s.PagedBuilt} {
			if b, err := view(); err == nil || !strings.Contains(err.Error(), "an index has one") {
				t.Errorf("%s over a manifest with a %s index = %v, %v; want an error", name, design, b, err)
			}
		}
		s.Close()
	}
}
