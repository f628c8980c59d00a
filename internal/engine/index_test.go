package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// rowSortIndex is the index build this package had while rel.Table kept
// a row view: a stable sort of the materialized rows by Value.Compare
// over the key column, the key copied out in index order, and the size
// taken cell by cell off the rows. It stays as the oracle for the build
// that reads column vectors.
func rowSortIndex(t *rel.Table, idx *physical.Index) (order []int, leadKeys []rel.Value, firstNonNull int, bytes int64) {
	rows := t.Rows()
	key := t.ColIndex(idx.Key[0])
	order = make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return rows[order[i]][key].Compare(rows[order[j]][key]) < 0
	})
	leadKeys = make([]rel.Value, len(order))
	for i, rid := range order {
		leadKeys[i] = rows[rid][key]
	}
	firstNonNull = sort.Search(len(order), func(i int) bool { return !leadKeys[i].Null })
	bytes = 12 * int64(len(rows))
	for _, c := range append(append([]string(nil), idx.Key...), idx.Include...) {
		ci := t.ColIndex(c)
		for _, row := range rows {
			bytes += int64(row[ci].Width())
		}
	}
	return order, leadKeys, firstNonNull, bytes
}

// TestIndexBuildMatchesRowSort: every index of the equivalence fixtures,
// plus more keys over the movie data and keys over fillDB's NULL-heavy
// columns, comes out of buildIndex with the order, keys, firstNonNull
// and size the row-sorting build produced — duplicate keys in row-id
// order — and StructBytes adds up to the same total.
func TestIndexBuildMatchesRowSort(t *testing.T) {
	builts := map[string]*Built{}
	for name, fx := range equivalenceFixtures(t) {
		if len(fx.built.Config.Indexes) > 0 {
			builts[name] = fx.built
		}
	}
	movie := builts["movie-indexes"]
	if movie == nil {
		t.Fatal("the movie-indexes fixture is gone")
	}
	multi := &physical.Config{}
	multi.AddIndex(&physical.Index{Name: "ix_genre", Table: "movie", Key: []string{"genre"}, Include: []string{"title"}})
	multi.AddIndex(&physical.Index{Name: "ix_year", Table: "movie", Key: []string{"year"}})
	multi.AddIndex(&physical.Index{Name: "ix_actor_pid", Table: "actor", Key: []string{"PID"}})
	var err error
	if builts["movie-multi"], err = Build(movie.DB, multi); err != nil {
		t.Fatal(err)
	}
	nulls := &physical.Config{}
	nulls.AddIndex(&physical.Index{Name: "ix_p_x", Table: "p", Key: []string{"x"}, Include: []string{"f"}})
	nulls.AddIndex(&physical.Index{Name: "ix_p_k", Table: "p", Key: []string{"k"}})
	nulls.AddIndex(&physical.Index{Name: "ix_p_allnull", Table: "p", Key: []string{"allnull"}})
	nulls.AddIndex(&physical.Index{Name: "ix_c_w", Table: "c", Key: []string{"w"}, Include: []string{"allnull"}})
	if builts["fill-nulls"], err = Build(fillDB(), nulls); err != nil {
		t.Fatal(err)
	}

	for name, b := range builts {
		var total int64
		for _, idx := range b.Config.Indexes {
			bi := b.Index(idx)
			order, leadKeys, firstNonNull, bytes := rowSortIndex(b.DB.Table(idx.Table), idx)
			label := name + " " + idx.Name
			if len(bi.order) != len(order) {
				t.Fatalf("%s: %d order entries over %d rows", label, len(bi.order), len(order))
			}
			for i := range order {
				if int(bi.order[i]) != order[i] {
					t.Fatalf("%s: order[%d] = row %d, the row sort has row %d", label, i, bi.order[i], order[i])
				}
				if k := indexKey(bi, i); !k.BitEqual(leadKeys[i]) {
					t.Fatalf("%s: key at %d = %v, want %v", label, i, k, leadKeys[i])
				}
			}
			if bi.firstNonNull != firstNonNull || bi.bytes != bytes {
				t.Fatalf("%s: firstNonNull %d, %d bytes; want %d, %d", label, bi.firstNonNull, bi.bytes, firstNonNull, bytes)
			}
			total += bytes
		}
		if len(b.Config.Views)+len(b.Config.Partitions) == 0 && b.StructBytes != total {
			t.Errorf("%s: StructBytes %d, the indexes add up to %d", name, b.StructBytes, total)
		}
	}
}

// seekIndex builds a one-column index over keys, stored in a seeded
// shuffle of the given order so that row ids and index order differ.
func seekIndex(t *testing.T, rng *rand.Rand, keys []rel.Value) *builtIndex {
	t.Helper()
	typ := rel.TInt
	if len(keys) > 0 {
		typ = keys[0].Typ // the keys are all of one type, NULLs included
	}
	tb := rel.NewTable("t", []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}, {Name: "k", Typ: typ, Nullable: true}})
	for i, j := range rng.Perm(len(keys)) {
		tb.AppendRow([]rel.Value{rel.Int(int64(i)), keys[j]})
	}
	db := rel.NewDatabase()
	db.Add(tb)
	idx := &physical.Index{Name: "ix_k", Table: "t", Key: []string{"k"}}
	b, err := Build(db, &physical.Config{Indexes: []*physical.Index{idx}})
	if err != nil {
		t.Fatal(err)
	}
	return b.Index(idx)
}

// indexKey reads the key at index position i off the indexed table.
func indexKey(bi *builtIndex, i int) rel.Value { return bi.table.ValueAt(int(bi.order[i]), bi.key) }

// linearEqual is an equality seek by a linear scan of the keys: the row
// ids, in index order, of every non-NULL key that compares equal to v.
func linearEqual(bi *builtIndex, v rel.Value) []int32 {
	var out []int32
	for i := range bi.order {
		if k := indexKey(bi, i); !k.Null && k.Compare(v) == 0 {
			out = append(out, bi.order[i])
		}
	}
	return out
}

// fingerSeq orders int probes the ways a probe sequence can move a
// seekInt finger: ascending, each repeated, descending (every step
// backward), then in a seeded shuffle.
func fingerSeq(rng *rand.Rand, probes []int64) []int64 {
	up := slices.Clone(probes)
	slices.Sort(up)
	var seq []int64
	for _, k := range up {
		seq = append(seq, k, k)
	}
	for i := len(up) - 1; i >= 0; i-- {
		seq = append(seq, up[i])
	}
	for _, i := range rng.Perm(len(up)) {
		seq = append(seq, up[i])
	}
	return seq
}

// checkFinger runs seq through seekInt with one finger and wants each
// answer to equal seekRange(OpEq) — the reference's two binary searches
// — and a linear scan, and the finger to stay within the keys.
func checkFinger(t *testing.T, label string, bi *builtIndex, seq []int64) {
	t.Helper()
	finger := 0
	for i, k := range seq {
		got := bi.seekInt(k, &finger)
		if ref := bi.seekRange(sqlast.OpEq, rel.Int(k)); !slices.Equal(got, ref) {
			t.Fatalf("%s: probe %d (%d): seekInt %v, seekRange(OpEq) %v", label, i, k, got, ref)
		}
		if want := linearEqual(bi, rel.Int(k)); !slices.Equal(got, want) {
			t.Fatalf("%s: probe %d (%d): seekInt %v, a linear scan %v", label, i, k, got, want)
		}
		if finger < 0 || finger > len(bi.ints) {
			t.Fatalf("%s: probe %d (%d) left the finger at %d of %d keys", label, i, k, finger, len(bi.ints))
		}
	}
}

// TestIndexSeekEqualMatchesLinearScan checks the finger search seekInt,
// the probe of every join and EXISTS, against a linear scan of the keys and
// against the two binary searches ExecuteReference runs, over int leads:
// equal-key runs of 1, 2, 3 and 2^k+1 rows behind an all-NULL prefix, a
// one-row and an all-NULL index, keys at the int64 extremes, and seeded
// random runs. Each index is probed in one fingerSeq, so the forward
// gallop, repeated keys and the backward binary search all run, with
// probes below the first key, between keys, above the last, and at the
// int64 extremes. Float and string leads, which only seek drivers
// search, keep the check of seekRange(OpEq) against the linear scan,
// probed with their own type.
func TestIndexSeekEqualMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	null := rel.NullOf(rel.TInt)
	runs := func(nulls int, lens ...int) []rel.Value {
		var keys []rel.Value
		for range nulls {
			keys = append(keys, null)
		}
		for i, n := range lens {
			for range n {
				keys = append(keys, rel.Int(int64(10*(i+1))))
			}
		}
		return keys
	}
	ints := func(vs ...int64) []rel.Value {
		var out []rel.Value
		for _, v := range vs {
			out = append(out, rel.Int(v))
		}
		return out
	}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
	type tc struct {
		name   string
		keys   []rel.Value
		probes []int64
	}
	cases := []tc{
		{"runs of 1,2,3,2^k+1 after NULLs", runs(8, 1, 2, 3, 5, 9, 17, 33, 65, 129, 1),
			[]int64{-5, 0, 9, 10, 11, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100, 101, 1e6}},
		{"one row", ints(7), []int64{6, 7, 8}},
		{"all NULL", runs(5), []int64{0, 10}},
		{"int64 extremes", append(ints(math.MinInt64, math.MinInt64, 0, math.MaxInt64, math.MaxInt64, math.MaxInt64), null), nil},
	}
	for r := range 50 {
		var lens []int
		for range 1 + rng.Intn(20) {
			lens = append(lens, 1+rng.Intn(40))
		}
		probes := []int64{int64(rng.Intn(300) - 20)}
		for i := range lens {
			probes = append(probes, int64(10*(i+1)), int64(10*(i+1)+rng.Intn(3)-1))
		}
		cases = append(cases, tc{fmt.Sprintf("random %d", r), runs(rng.Intn(4), lens...), probes})
	}
	for _, c := range cases {
		checkFinger(t, c.name, seekIndex(t, rng, c.keys), fingerSeq(rng, append(c.probes, extremes...)))
	}

	floats := func(vs ...float64) []rel.Value {
		var out []rel.Value
		for _, v := range vs {
			out = append(out, rel.Float(v))
		}
		return out
	}
	for _, c := range []struct {
		name         string
		keys, probes []rel.Value
	}{
		{"float keys", floats(-1, math.Copysign(0, -1), 0, 0, 2.5, 2.5, 2.5, 3, 3, 3, 3, 3, math.NaN()),
			floats(-1, 0, 2, 3, 4, math.Copysign(0, -1), 2.5, 2.75, math.NaN())},
		{"string keys", []rel.Value{rel.Str("1"), rel.Str("10"), rel.Str("2"), rel.Str("2"), rel.Str("2"), rel.Str("b"), rel.NullOf(rel.TString)},
			[]rel.Value{rel.Str("0"), rel.Str("2"), rel.Str("b"), rel.Str("c")}},
	} {
		bi := seekIndex(t, rng, c.keys)
		for _, v := range c.probes {
			if got, want := bi.seekRange(sqlast.OpEq, v), linearEqual(bi, v); !slices.Equal(got, want) {
				t.Fatalf("%s: probe %v: seekRange(OpEq) %v, a linear scan %v", c.name, v, got, want)
			}
		}
	}
}

// TestRowsCalledOnlyByReference pins the one-representation rule where
// it can still be broken: rel.Table keeps no row view, so what is left to
// guard is that no product code of this package asks for one —
// Table.Rows() materializes a whole table at 40 bytes a cell — except the
// reference executor, whose full-table fetches are row-at-a-time by
// design.
func TestRowsCalledOnlyByReference(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "reference.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rows" {
				t.Errorf("%s calls .Rows(): read the column vectors (ValueAt, the typed accessors) instead", fset.Position(call.Pos()))
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no product file parsed; the test is looking in the wrong directory")
	}
}

// Palettes FuzzIndexSeek draws keys and probes from: the int64 extremes,
// NaN, both zeros and both infinities, the empty string and shared
// prefixes, each small enough that duplicate runs are common.
var (
	fuzzInts    = []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 2, 3, 10, math.MaxInt64 - 1, math.MaxInt64}
	fuzzFloats  = []float64{math.NaN(), math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 1e300, math.Inf(1)}
	fuzzStrings = []string{"", "0", "1", "10", "2", "a", "ab", "abc", "abd", "b", "ba", "zz"}
)

// fuzzKey decodes one fuzz byte as a key of the given column kind: 0 int,
// 1 float, 2 string. Every kind yields NULLs.
func fuzzKey(kind uint8, b byte) rel.Value {
	if b%9 == 0 {
		return rel.NullOf(rel.Type(kind))
	}
	i := int(b / 9)
	switch kind {
	case 0:
		return rel.Int(fuzzInts[i%len(fuzzInts)])
	case 1:
		return rel.Float(fuzzFloats[i%len(fuzzFloats)])
	}
	return rel.Str(fuzzStrings[i%len(fuzzStrings)])
}

// fuzzProbe decodes one fuzz byte as a probe of any type, NULL included.
func fuzzProbe(b byte) rel.Value {
	i := int(b / 4)
	switch b % 4 {
	case 0:
		return rel.Int(fuzzInts[i%len(fuzzInts)])
	case 1:
		return rel.Float(fuzzFloats[i%len(fuzzFloats)])
	case 2:
		return rel.Str(fuzzStrings[i%len(fuzzStrings)])
	}
	return rel.NullOf(rel.Type(i % 3))
}

// FuzzIndexSeek builds a one-column index over fuzzed keys of one kind
// (see fuzzKey). Over an int lead it first runs the probe bytes, each an
// int from fuzzInts, through seekInt with one finger, in their fuzzed
// order and then in fingerSeq's: each answer must equal seekRange(OpEq)
// and a linear scan. Over every lead it probes seekRange with the fuzzed
// values of the lead's type and NULLs: under each of the five operators
// it must equal a linear filter by Value.Compare over the keys in index
// order. A probe of another type is a plan no executor runs (planShape)
// and is skipped.
func FuzzIndexSeek(f *testing.F) {
	f.Add(uint8(0), []byte{0, 9, 18, 18, 27, 90, 99, 36, 36, 36}, []byte{0, 4, 8, 12, 40, 1, 2, 3})
	f.Add(uint8(1), []byte{0, 9, 18, 27, 36, 36, 45, 90, 99}, []byte{1, 5, 13, 17, 21, 0, 4, 6})
	f.Add(uint8(2), []byte{0, 9, 18, 27, 36, 45, 45, 63, 72, 81}, []byte{2, 6, 10, 14, 30, 0, 1, 3})
	f.Add(uint8(3), []byte{0, 9, 18, 27, 36, 45, 54, 63}, []byte{0, 4, 8, 1, 5, 2, 3})
	ops := []sqlast.CmpOp{sqlast.OpEq, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
	f.Fuzz(func(t *testing.T, kind uint8, keyBytes, probeBytes []byte) {
		kind %= 3
		if len(keyBytes) > 512 || len(probeBytes) > 64 {
			return
		}
		keys := make([]rel.Value, len(keyBytes))
		for i, b := range keyBytes {
			keys[i] = fuzzKey(kind, b)
		}
		rng := rand.New(rand.NewSource(int64(len(keyBytes))))
		bi := seekIndex(t, rng, keys)
		if kind == 0 {
			probes := make([]int64, len(probeBytes))
			for i, b := range probeBytes {
				probes[i] = fuzzInts[int(b)%len(fuzzInts)]
			}
			checkFinger(t, "fuzzed order", bi, probes)
			checkFinger(t, "fingerSeq", bi, fingerSeq(rng, probes))
		}
		for _, b := range probeBytes {
			v := fuzzProbe(b)
			if !v.Null && v.Typ != rel.Type(kind) {
				continue
			}
			for _, op := range ops {
				var want []int32
				for i := range bi.order {
					k := indexKey(bi, i)
					if !v.Null && !k.Null && op.Matches(k.Compare(v)) {
						want = append(want, bi.order[i])
					}
				}
				if got := bi.seekRange(op, v); !slices.Equal(got, want) {
					t.Fatalf("probe %#v op %d: seekRange %v, a linear filter %v", v, op, got, want)
				}
			}
		}
	})
}

// TestIndexBytesStayTyped pins what an index costs to build: its typed
// lead vector plus int32 row ids, 12 bytes a row, and for a string lead
// the sorted distinct strings — at most 1.15 × rows × 12 bytes plus 16
// bytes per distinct string of allocation, where the []rel.Value lead
// and []int order it replaces took 48 a row.
func TestIndexBytesStayTyped(t *testing.T) {
	const rows = 50_000
	rng := rand.New(rand.NewSource(36))
	cols := []rel.Column{{Name: rel.IDColumn, Typ: rel.TInt}, {Name: "i", Typ: rel.TInt, Nullable: true},
		{Name: "f", Typ: rel.TFloat}, {Name: "s", Typ: rel.TString}}
	tb := rel.NewTable("t", cols)
	distinct := map[string]bool{}
	for r := 0; r < rows; r++ {
		i := rel.Int(rng.Int63n(rows / 4))
		if r%10 == 0 {
			i = rel.NullOf(rel.TInt)
		}
		s := fmt.Sprintf("conf/%05d", rng.Intn(rows))
		distinct[s] = true
		tb.AppendRow([]rel.Value{rel.Int(int64(r)), i, rel.Float(rng.NormFloat64()), rel.Str(s)})
	}
	db := rel.NewDatabase()
	db.Add(tb)
	for _, c := range []struct {
		col  string
		strs int // distinct strings the bound allows for
	}{{"i", 0}, {"f", 0}, {"s", len(distinct)}} {
		idx := &physical.Index{Name: "ix_" + c.col, Table: "t", Key: []string{c.col}}
		var bi *builtIndex
		got := func() uint64 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if bi, err = buildIndex(tb, idx, rankTables{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}()
		if n := len(bi.ints) + len(bi.floats) + len(bi.ranks); n != rows-bi.firstNonNull {
			t.Fatalf("%s: %d typed lead keys over %d non-NULL rows", c.col, n, rows-bi.firstNonNull)
		}
		bound := 1.15*rows*12 + 16*float64(c.strs)
		t.Logf("%s: %d bytes allocated (bound %.0f)", c.col, got, bound)
		if float64(got) > bound && !raceEnabled {
			t.Errorf("%s: building the index allocated %d bytes, more than 1.15 × %d rows × 12 + 16 × %d strings = %.0f",
				c.col, got, rows, c.strs, bound)
		}
	}
}
