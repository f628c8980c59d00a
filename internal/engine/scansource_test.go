package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/par"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// planQuery plans a hand-built query against the oracle database under
// an empty config. Plans are Built-independent, so one plan executes
// against every Built over the same rows, whatever sources it has.
func planQuery(t *testing.T, db *rel.Database, q *sqlast.Query) *optimizer.Plan {
	t.Helper()
	plan, err := optimizer.New(stats.FromDatabase(db)).PlanQuery(q, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// countedSource wraps a ScanSource and counts outstanding acquisitions
// so tests can assert the executor's release discipline: at most one
// held chunk per worker, zero when idle.
type countedSource struct {
	ScanSource
	held    atomic.Int64
	maxHeld atomic.Int64
}

func (s *countedSource) ChunkColumns(k int, cols []int) (*rel.Table, func(), error) {
	frag, release, err := s.ScanSource.ChunkColumns(k, cols)
	if err != nil {
		return nil, nil, err
	}
	h := s.held.Add(1)
	for {
		m := s.maxHeld.Load()
		if h <= m || s.maxHeld.CompareAndSwap(m, h) {
			break
		}
	}
	var released atomic.Bool
	return frag, func() {
		if released.CompareAndSwap(false, true) {
			s.held.Add(-1)
			release()
		}
	}, nil
}

// sliceSource is an in-memory ScanSource: chunk-granular slices of a
// resident table, each copied into a table of its own once and
// served as is at Chunk time — the same shape the storage pager
// serves, without the disk.
type sliceSource struct {
	cols   []rel.Column
	rows   int
	spans  [][2]int
	chunks []*rel.Table
}

func newSliceSource(t *testing.T, tbl *rel.Table, chunkRows int) *countedSource {
	t.Helper()
	if chunkRows%64 != 0 {
		t.Fatalf("chunkRows %d must be a multiple of 64", chunkRows)
	}
	s := &sliceSource{cols: tbl.Columns, rows: tbl.RowCount()}
	row := make([]rel.Value, len(tbl.Columns))
	for lo := 0; lo < s.rows; lo += chunkRows {
		hi := min(lo+chunkRows, s.rows)
		// A chunk is its rows appended to a table of their own, so its
		// dictionaries are local and in first-appearance order, as in a
		// chunk the storage encoder writes.
		chunk := rel.NewTable(tbl.Name, tbl.Columns)
		chunk.Parent = tbl.Parent
		for r := lo; r < hi; r++ {
			tbl.ReadRowInto(row, r)
			chunk.AppendRow(row)
		}
		s.spans = append(s.spans, [2]int{lo, hi})
		s.chunks = append(s.chunks, chunk)
	}
	return &countedSource{ScanSource: s}
}

func (s *sliceSource) Columns() []rel.Column      { return s.cols }
func (s *sliceSource) RowCount() int              { return s.rows }
func (s *sliceSource) NumChunks() int             { return len(s.chunks) }
func (s *sliceSource) ChunkSpan(k int) (int, int) { return s.spans[k][0], s.spans[k][1] }

func (s *sliceSource) Chunk(k int) (*rel.Table, func(), error) {
	return s.chunks[k], func() {}, nil
}

func (s *sliceSource) ChunkColumns(k int, _ []int) (*rel.Table, func(), error) {
	return s.Chunk(k)
}

// chunkDB builds a parent/child database big enough to span many
// chunks, with the value shapes that stress kernels: repeated strings,
// strings that read as numbers in a few chunks only (so chunk
// dictionaries differ), NULLs, and non-finite floats.
func chunkDB(nrows int) *rel.Database {
	db := rel.NewDatabase()
	big := rel.NewTable("big", []rel.Column{
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt, Nullable: true},
		{Name: "tag", Typ: rel.TString, Nullable: true},
		{Name: "val", Typ: rel.TFloat, Nullable: true},
		{Name: "n", Typ: rel.TInt, Nullable: true},
	})
	for i := 0; i < nrows; i++ {
		tag := rel.Str(fmt.Sprintf("tag-%02d", i%7))
		switch {
		case i%13 == 0:
			tag = rel.NullOf(rel.TString)
		case i%97 == 0:
			tag = rel.Str(fmt.Sprint(i))
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
		{Name: "ID", Typ: rel.TInt},
		{Name: "PID", Typ: rel.TInt},
		{Name: "word", Typ: rel.TString},
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

// chunkQueries exercise the scan driver: a pure filtered scan (typed
// int + dictionary string kernels), a scan over the float column with
// its NaNs and NULLs, a hash-join with a
// driver-stage filter, and a union of two filtered scans of the same
// table (the shape every split or inlined mapping translates to).
func chunkQueries() []*sqlast.Query {
	bigCols := []sqlast.SelectItem{
		{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
		{Col: &sqlast.ColRef{Table: "big", Column: "tag"}, As: "tag"},
	}
	return []*sqlast.Query{
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
		{Branches: []*sqlast.Select{{
			Items: []sqlast.SelectItem{
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
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
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
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
				{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"},
				{Col: &sqlast.ColRef{Table: "kid", Column: "word"}, As: "word"},
			},
			From: []string{"big", "kid"},
			Where: []sqlast.Pred{
				{Kind: sqlast.PredJoin,
					Left:  sqlast.ColRef{Table: "kid", Column: "PID"},
					Right: sqlast.ColRef{Table: "big", Column: "ID"}},
				{Kind: sqlast.PredCompare, Op: sqlast.OpLt,
					Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(50)},
			},
		}}, OrderBy: "ID"},
	}
}

// TestScanSourceMatchesAssembled is the in-memory equivalence matrix
// of the one scan driver: the same plans executed over an unregistered
// resident table (the implicit one-chunk tableSource), over a
// registered tableSource (fragment-identity kernel reuse, counted), and
// over registered 128-row chunk sources (per-fragment kernels and
// fills), must all return results bit-identical — rows, order, values, stats — to the
// row-at-a-time reference at several worker counts, with never more
// chunks held at once than the execution has workers — the worker count
// is the number of goroutines, whatever the number of branches — and
// every chunk released when execution finishes.
func TestScanSourceMatchesAssembled(t *testing.T) {
	const nrows = 1600
	db := chunkDB(nrows)
	sources := map[string]func(*rel.Table) *countedSource{
		"resident": nil,
		"table": func(tbl *rel.Table) *countedSource {
			return &countedSource{ScanSource: tableSource{tbl}}
		},
		"chunks-128": func(tbl *rel.Table) *countedSource { return newSliceSource(t, tbl, 128) },
	}

	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 256 // two 128-row chunks per morsel

	for name, mk := range sources {
		sdb := chunkDB(nrows)
		built, err := Build(sdb, nil)
		if err != nil {
			t.Fatal(err)
		}
		var counted []*countedSource
		if mk != nil {
			for _, tbl := range sdb.Tables() {
				src := mk(tbl)
				built.SetScanSource(tbl.Name, src)
				counted = append(counted, src)
			}
		}
		used := mk == nil
		for qi, q := range chunkQueries() {
			plan := planQuery(t, db, q)
			want, err := ExecuteReference(built, plan)
			if err != nil {
				t.Fatalf("%s query %d: reference: %v", name, qi, err)
			}
			pp, err := built.Prepared(plan)
			if err != nil {
				t.Fatalf("%s query %d: prepare: %v", name, qi, err)
			}
			for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
				for run := 0; run < 2; run++ {
					for _, src := range counted {
						src.maxHeld.Store(0)
					}
					got, err := pp.ExecuteContextWorkers(context.Background(), workers)
					if err != nil {
						t.Fatalf("%s query %d workers %d: %v", name, qi, workers, err)
					}
					requireIdentical(t, fmt.Sprintf("%s query %d workers %d", name, qi, workers), got, want)
					for _, src := range counted {
						if h := src.held.Load(); h != 0 {
							t.Fatalf("%s query %d workers %d: %d chunks still held after execution", name, qi, workers, h)
						}
						m := src.maxHeld.Load()
						if m > int64(workers) {
							t.Fatalf("%s query %d: %d chunks held at once by %d workers", name, qi, m, workers)
						}
						used = used || m > 0
					}
				}
			}
		}
		if !used {
			t.Fatalf("%s: scan source was never used", name)
		}
	}
}

// TestScanSourceOverVirtualShells runs the chunk-scan driver over a
// database of unhydrated shells: the driver scan must execute without
// ever hydrating its table, while the join build side hydrates on
// demand through its loader.
func TestScanSourceOverVirtualShells(t *testing.T) {
	const nrows = 960
	db := chunkDB(nrows)
	bigSrc := newSliceSource(t, db.Table("big"), 128)
	kidSrc := newSliceSource(t, db.Table("kid"), 128)

	shellDB := rel.NewDatabase()
	var shells []*rel.Table
	for _, src := range db.Tables() {
		src := src
		sh := rel.NewVirtualTable(src.Name, src.Parent, src.Columns,
			src.RowCount(), src.Bytes(),
			func() (*rel.Table, error) { return src, nil })
		shellDB.Add(sh)
		shells = append(shells, sh)
	}
	paged, err := Build(shellDB, nil)
	if err != nil {
		t.Fatal(err)
	}
	paged.SetScanSource("big", bigSrc)
	paged.SetScanSource("kid", kidSrc)
	oracle, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	for qi, q := range chunkQueries() {
		plan := planQuery(t, db, q)
		want, err := ExecuteReference(oracle, plan)
		if err != nil {
			t.Fatalf("query %d: reference: %v", qi, err)
		}
		got, err := Execute(paged, plan)
		if err != nil {
			t.Fatalf("query %d: paged: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("query %d shells", qi), got, want)
	}
	// The pure-scan queries never touch "big" beyond its source, and the
	// join plan only hydrates its build side — at least one shell must
	// still be virtual, proving scans did not fall back to assembly.
	virtual := 0
	for _, sh := range shells {
		if !sh.Resident() {
			virtual++
		}
	}
	if virtual == 0 {
		t.Fatal("every shell hydrated; chunk scans fell back to full assembly")
	}
}

// TestScanSourceIgnoredForSeeksAndViews pins the scope of the source
// registry: index seeks hydrate and use the assembled table even when a
// source is registered (results must stay identical to the assembled
// Built with the same index).
func TestScanSourceIgnoredForSeeks(t *testing.T) {
	const nrows = 640
	db := chunkDB(nrows)
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_big_n", Table: "big", Key: []string{"n"},
		Include: []string{"ID", "tag"}})

	q := &sqlast.Query{Branches: []*sqlast.Select{{
		Items: []sqlast.SelectItem{{Col: &sqlast.ColRef{Table: "big", Column: "ID"}, As: "ID"}},
		From:  []string{"big"},
		Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe,
			Col: sqlast.ColRef{Table: "big", Column: "n"}, Value: rel.Int(95)}},
	}}, OrderBy: "ID"}

	oracle, plan := planFor(t, db, q, cfg)
	paged, err := Build(chunkDB(nrows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := newSliceSource(t, db.Table("big"), 128)
	paged.SetScanSource("big", src)

	want, err := ExecuteReference(oracle, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(paged, plan)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "seek with registered source", got, want)
	if want.Stats.RowsSought == 0 {
		t.Fatal("plan did not seek; fixture lost its point")
	}
	if src.maxHeld.Load() != 0 {
		t.Fatal("seek access pulled chunks from the scan source")
	}
}

// recordingSource records the column set of every fetch.
type recordingSource struct {
	ScanSource
	mu   sync.Mutex
	sets [][]int
}

func (s *recordingSource) ChunkColumns(k int, cols []int) (*rel.Table, func(), error) {
	s.mu.Lock()
	s.sets = append(s.sets, slices.Clone(cols))
	s.mu.Unlock()
	return s.ScanSource.ChunkColumns(k, cols)
}

// TestScanColumnSets pins what a scan asks its source for: exactly the
// columns its kernels and fills read — every column of the scanned table
// the branch's SQL references — unioned over every branch of the plan
// that scans the same table, so a union fetches one set. Each fixture
// plan runs on two workers over 128-row chunk sources, unpartitioned and
// with both tables partitioned, and every fetch must carry its table's
// set: a partition scan fetches the columns it references, all of them
// inside the groups it names.
func TestScanColumnSets(t *testing.T) {
	const nrows = 640
	db := chunkDB(nrows)
	partitioned := &physical.Config{}
	partitioned.AddPartition(&physical.VPartition{Table: "big", Groups: [][]string{{"tag"}, {"val", "n"}}})
	partitioned.AddPartition(&physical.VPartition{Table: "kid", Groups: [][]string{{"word"}}})
	for _, cfg := range []*physical.Config{{}, partitioned} {
		sdb := chunkDB(nrows)
		built, err := Build(sdb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make(map[string]*recordingSource)
		for _, tbl := range sdb.Tables() {
			srcs[tbl.Name] = &recordingSource{ScanSource: newSliceSource(t, tbl, 128)}
			built.SetScanSource(tbl.Name, srcs[tbl.Name])
		}
		opt := optimizer.New(stats.FromDatabase(db))
		partScans := 0
		for qi, q := range chunkQueries() {
			plan, err := opt.PlanQuery(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string][]int)
			for _, br := range plan.Branches {
				a := br.Driver
				if a.Kind != optimizer.AccessScan {
					continue
				}
				inGroups := func(string) bool { return true }
				if len(a.Groups) > 0 {
					partScans++
					vp := cfg.PartitionOf(a.Table)
					inGroups = func(c string) bool {
						if c == rel.IDColumn || c == rel.PIDColumn {
							return true
						}
						for _, g := range a.Groups {
							if slices.Contains(vp.Groups[g], c) {
								return true
							}
						}
						return false
					}
				}
				tbl := sdb.Table(a.Table)
				for ci, c := range tbl.Columns {
					if slices.Contains(br.Sel.ColumnsOf(a.Table), c.Name) {
						if !inGroups(c.Name) {
							t.Fatalf("query %d: plan reads %s.%s outside its groups %v", qi, a.Table, c.Name, a.Groups)
						}
						want[a.Table] = append(want[a.Table], ci)
					}
				}
			}
			for name, cols := range want {
				slices.Sort(cols)
				want[name] = slices.Compact(cols)
			}
			for _, src := range srcs {
				src.sets = nil
			}
			pp, err := built.Prepared(plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pp.ExecuteContextWorkers(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			for name, src := range srcs {
				if want[name] != nil && len(src.sets) == 0 {
					t.Fatalf("query %d: %s is scanned but was never fetched", qi, name)
				}
				for _, got := range src.sets {
					if !slices.Equal(got, want[name]) {
						t.Fatalf("query %d: %s fetched columns %v, want %v", qi, name, got, want[name])
					}
				}
			}
		}
		if len(cfg.Partitions) > 0 && partScans == 0 {
			t.Fatal("no plan drives off a partition; the partitioned fixture lost its point")
		}
	}
}

// TestPartitionScanPagesThroughStore pins that a partition scan is a
// plain scan of its base table. On a store reopened under a quarter of
// its data, plans driving off one and two partition groups of big —
// which no index, view or hash-join build side reads — page through
// big's chunk source: neither the rebuild nor the scans hydrate big, the
// pager faults, and results equal the reference's zip of group copies on
// the resident Built.
func TestPartitionScanPagesThroughStore(t *testing.T) {
	db := chunkDB(1600)
	cfg := &physical.Config{}
	cfg.AddPartition(&physical.VPartition{Table: "big", Groups: [][]string{{"tag"}, {"val", "n"}}})
	oracle, err := Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	paged := OpenPaged(t, oracle, reg)
	big := paged.DB.Table("big")
	if big.Resident() {
		t.Fatal("PagedBuilt hydrated the partitioned table")
	}
	faults := reg.Counter("storage.pager.faults")
	before := faults.Value()

	col := func(c string) *sqlast.ColRef { return &sqlast.ColRef{Table: "big", Column: c} }
	items := []sqlast.SelectItem{{Col: col("ID"), As: "ID"}, {Col: col("tag"), As: "tag"}}
	opt := optimizer.New(stats.FromDatabase(db))
	for groups, sel := range map[int]*sqlast.Select{
		1: {Items: items, From: []string{"big"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpEq, Col: *col("tag"), Value: rel.Str("tag-03")}}},
		2: {Items: append(items, sqlast.SelectItem{Col: col("val"), As: "val"}), From: []string{"big"},
			Where: []sqlast.Pred{{Kind: sqlast.PredCompare, Op: sqlast.OpGe, Col: *col("n"), Value: rel.Int(60)}}},
	} {
		plan, err := opt.PlanQuery(&sqlast.Query{Branches: []*sqlast.Select{sel}, OrderBy: "ID"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g := plan.Branches[0].Driver.Groups; len(g) != groups {
			t.Fatalf("plan drives off groups %v, want %d of them", g, groups)
		}
		want, err := ExecuteReference(oracle, plan)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := paged.Prepared(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := pp.ExecuteContextWorkers(context.Background(), workers)
			if err != nil {
				t.Fatalf("%d groups, workers %d: %v", groups, workers, err)
			}
			requireIdentical(t, fmt.Sprintf("%d groups, workers %d", groups, workers), got, want)
		}
	}
	if big.Resident() {
		t.Fatal("a partition scan hydrated its base table")
	}
	if faults.Value() <= before {
		t.Fatal("partition scans faulted no chunk; they did not page through the store")
	}
}

// hookedSource runs before ahead of every fetch: an error it returns is
// the fetch's, and a panic in it is the fetch's panic. A nil before
// serves every fetch. Tests set it only between executions.
type hookedSource struct {
	ScanSource
	before func(k int) error
}

func (s *hookedSource) ChunkColumns(k int, cols []int) (*rel.Table, func(), error) {
	if s.before != nil {
		if err := s.before(k); err != nil {
			return nil, nil, err
		}
	}
	return s.ScanSource.ChunkColumns(k, cols)
}

// hookedFixture registers a hooked 128-row chunk source for big on a
// Built of chunkDB(1600), with one morsel per chunk, and prepares q.
func hookedFixture(t *testing.T, q *sqlast.Query) (src *hookedSource, counted *countedSource, pp *PreparedPlan, want *Result) {
	t.Helper()
	old := morselRows
	morselRows = 128
	t.Cleanup(func() { morselRows = old })
	db := chunkDB(1600)
	built, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	counted = newSliceSource(t, db.Table("big"), 128)
	src = &hookedSource{ScanSource: counted}
	built.SetScanSource("big", src)
	plan := planQuery(t, db, q)
	if want, err = ExecuteReference(built, plan); err != nil {
		t.Fatal(err)
	}
	if pp, err = built.Prepared(plan); err != nil {
		t.Fatal(err)
	}
	return src, counted, pp, want
}

// execTargets are the executor's two output targets, each run to its
// error.
var execTargets = []struct {
	name string
	run  func(pp *PreparedPlan, workers int) error
}{
	{"ExecuteContextWorkers", func(pp *PreparedPlan, workers int) error {
		_, err := pp.ExecuteContextWorkers(context.Background(), workers)
		return err
	}},
	{"AppendRows", func(pp *PreparedPlan, workers int) error {
		_, _, _, err := pp.AppendRows(context.Background(), workers, nil, encodeRow)
		return err
	}},
}

// chunkPanic is the value a hooked source panics with.
type chunkPanic struct{ k int }

// TestExecuteRaisesSourcePanicOnCaller: a source whose fetch of chunk 5
// panics, under a union of two scans of it, raises that panic on the
// executing caller at every worker count and through both targets —
// never from a worker, where it would end the process — and only after
// every started morsel has released its chunk, every span of the traced
// execution has ended, and every pooled block has gone back to its
// pool; the same PreparedPlan then answers a healthy source
// bit-identically to the reference.
func TestExecuteRaisesSourcePanicOnCaller(t *testing.T) {
	src, counted, pp, want := hookedFixture(t, chunkQueries()[0])
	if pp.orderPos < 0 {
		t.Fatal("the query has no ORDER BY: its executions take no key block")
	}
	for _, target := range execTargets {
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s workers %d", target.name, workers)
			src.before = func(k int) error {
				if k == 5 {
					panic(chunkPanic{k})
				}
				return nil
			}
			tr := obs.New()
			pp.built.AttachObs(tr, nil)
			out := blocksOut.Load()
			p := func() (p any) {
				defer func() { p = recover() }()
				target.run(pp, workers)
				return nil
			}()
			pp.built.AttachObs(nil, nil)
			if p != (chunkPanic{5}) {
				t.Fatalf("%s: caller recovered %v, want the source's panic", label, p)
			}
			if h := counted.held.Load(); h != 0 {
				t.Fatalf("%s: %d chunks still held after the panic", label, h)
			}
			if err := tr.Validate(); err != nil || len(tr.FindAll("executor.branch")) == 0 {
				t.Fatalf("%s: the trace of the panicked execution (%d branch spans): %v", label, len(tr.FindAll("executor.branch")), err)
			}
			if n := blocksOut.Load() - out; n != 0 {
				t.Fatalf("%s: %d pooled blocks not returned after the panic", label, n)
			}
			src.before = nil
			got, err := pp.ExecuteContextWorkers(context.Background(), workers)
			if err != nil {
				t.Fatalf("%s: healthy rerun: %v", label, err)
			}
			requireIdentical(t, label+" healthy rerun", got, want)
			requireAppendMatches(t, label+" healthy rerun", pp, workers, want)
		}
	}
}

// TestStructureBuildPanicLeavesNoEntry: a structure build that panics
// — a hash join's key index over a shell whose loader panics — raises
// the panic on the building caller and leaves no entry behind, so the
// next lookup of the key builds again instead of waiting forever on the
// dead build. A caller that was waiting on the build when it panicked
// returns par.ErrPanicked and counts a hit, and a build that returns
// fills the key.
func TestStructureBuildPanicLeavesNoEntry(t *testing.T) {
	src := chunkDB(128).Table("big")
	sh := rel.NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount(), src.Bytes(),
		func() (*rel.Table, error) { panic("loader") })
	db := rel.NewDatabase()
	db.Add(sh)
	b, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// within runs f on a goroutine of its own and returns what it
	// panicked with, failing the test if it has not returned in time.
	within := func(label string, f func()) any {
		t.Helper()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			f()
		}()
		select {
		case p := <-done:
			return p
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still blocked after 5 s", label)
			return nil
		}
	}
	col := sh.ColIndex("PID")
	for i := 1; i <= 2; i++ {
		if p := within(fmt.Sprintf("key index lookup %d", i), func() { b.keyIndex("big", sh, col) }); p != "loader" {
			t.Fatalf("key index lookup %d raised %v, want the loader's panic", i, p)
		}
	}

	joins := &b.caches.joins
	hits := &b.caches.stats[ckindJoin].hits
	waiting := &joinCtx{Context: context.Background(), joined: make(chan struct{})}
	building := make(chan struct{})
	builder := make(chan any, 1)
	go func() {
		defer func() { builder <- recover() }()
		cacheGet(context.Background(), b, joins, ckindJoin, "k", func() (*builtIndex, error) {
			close(building)
			<-waiting.joined // until the waiter waits on this build
			panic("build")
		})
	}()
	<-building
	var waited error
	if p := within("waiter", func() {
		_, waited = cacheGet(waiting, b, joins, ckindJoin, "k", func() (*builtIndex, error) {
			t.Error("the waiter built the entry it was waiting on")
			return nil, nil
		})
	}); p != nil {
		t.Fatalf("the waiter panicked: %v", p)
	}
	if p := <-builder; p != "build" {
		t.Fatalf("the builder raised %v, want its build's panic", p)
	}
	if waited != par.ErrPanicked || hits.Load() != 1 {
		t.Fatalf("the waiter returned %v with %d hits, want par.ErrPanicked and 1", waited, hits.Load())
	}
	want := &builtIndex{}
	got, err := cacheGet(context.Background(), b, joins, ckindJoin, "k", func() (*builtIndex, error) { return want, nil })
	if err != nil || got != want || b.CachedStructures()["joinTables"] != 1 {
		t.Fatalf("the build after the panic: %p, %v, %d entries; want its own index cached", got, err, b.CachedStructures()["joinTables"])
	}
}

// TestExecuteErrorIsLowestFailingMorsel: every fetch from chunk 1 on
// fails, chunk 1's last in time, and the execution reports chunk 1's
// error — what one worker meets first — at every worker count and
// through both targets, with every chunk released.
func TestExecuteErrorIsLowestFailingMorsel(t *testing.T) {
	src, counted, pp, _ := hookedFixture(t, chunkQueries()[1])
	src.before = func(k int) error {
		switch k {
		case 0:
			return nil
		case 1:
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("chunk %d failed", k)
	}
	for _, target := range execTargets {
		for workers := 1; workers <= 8; workers++ {
			for run := 0; run < 3; run++ {
				err := target.run(pp, workers)
				if err == nil || err.Error() != "chunk 1 failed" {
					t.Fatalf("%s workers %d: %v, want chunk 1's error", target.name, workers, err)
				}
				if h := counted.held.Load(); h != 0 {
					t.Fatalf("%s workers %d: %d chunks still held", target.name, workers, h)
				}
			}
		}
	}
}

// joinCtx is a context that closes joined the first time a caller asks
// for its Done channel: a structure lookup asks only when it is about
// to wait on another caller's build (par.Memo).
type joinCtx struct {
	context.Context
	joined chan struct{}
	once   sync.Once
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}
