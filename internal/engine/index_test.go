package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/rel"
)

// rowSortIndex is the index build this package had while rel.Table kept
// a row view: a stable sort of the materialized rows by Value.Compare
// over the key columns, the leading key copied out in index order, and
// the size taken cell by cell off the rows. It stays as the oracle for
// the build that reads column vectors.
func rowSortIndex(t *rel.Table, idx *physical.Index) (order []int, leadKeys []rel.Value, firstNonNull int, bytes int64) {
	rows := t.Rows()
	var keyIdx []int
	for _, k := range idx.Key {
		keyIdx = append(keyIdx, t.ColIndex(k))
	}
	order = make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		for _, ki := range keyIdx {
			if cmp := rows[order[i]][ki].Compare(rows[order[j]][ki]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	leadKeys = make([]rel.Value, len(order))
	for i, rid := range order {
		leadKeys[i] = rows[rid][keyIdx[0]]
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
// plus multi-column keys over the movie data and keys over fillDB's
// exception-bearing and NULL-heavy columns, comes out of buildIndex with
// the order, leadKeys, firstNonNull and size the row-sorting build
// produced — duplicate keys in row-id order — and StructBytes adds up to
// the same total.
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
	multi.AddIndex(&physical.Index{Name: "ix_genre_year", Table: "movie", Key: []string{"genre", "year"}, Include: []string{"title"}})
	multi.AddIndex(&physical.Index{Name: "ix_year_rating_id", Table: "movie", Key: []string{"year", "avg_rating", "ID"}})
	multi.AddIndex(&physical.Index{Name: "ix_actor_pid_actor", Table: "actor", Key: []string{"PID", "actor"}})
	var err error
	if builts["movie-multi"], err = Build(movie.DB, multi); err != nil {
		t.Fatal(err)
	}
	dirty := &physical.Config{}
	dirty.AddIndex(&physical.Index{Name: "ix_p_x", Table: "p", Key: []string{"x"}, Include: []string{"f"}})
	dirty.AddIndex(&physical.Index{Name: "ix_p_k_x", Table: "p", Key: []string{"k", "x"}})
	dirty.AddIndex(&physical.Index{Name: "ix_p_allnull_f", Table: "p", Key: []string{"allnull", "f"}})
	dirty.AddIndex(&physical.Index{Name: "ix_c_w_pid", Table: "c", Key: []string{"w", "PID"}, Include: []string{"allnull"}})
	if builts["fill-exceptions"], err = Build(fillDB(), dirty); err != nil {
		t.Fatal(err)
	}

	for name, b := range builts {
		var total int64
		for _, idx := range b.Config.Indexes {
			bi := b.Index(idx)
			order, leadKeys, firstNonNull, bytes := rowSortIndex(b.DB.Table(idx.Table), idx)
			label := name + " " + idx.Name
			if len(bi.order) != len(order) || len(bi.leadKeys) != len(order) {
				t.Fatalf("%s: %d order entries and %d lead keys over %d rows", label, len(bi.order), len(bi.leadKeys), len(order))
			}
			for i := range order {
				if bi.order[i] != order[i] {
					t.Fatalf("%s: order[%d] = row %d, the row sort has row %d", label, i, bi.order[i], order[i])
				}
				if !bi.leadKeys[i].BitEqual(leadKeys[i]) {
					t.Fatalf("%s: leadKeys[%d] = %v, want %v", label, i, bi.leadKeys[i], leadKeys[i])
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
				t.Errorf("%s calls .Rows(): read the column vectors (ValueAt, the typed accessors, RowComparator) instead", fset.Position(call.Pos()))
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no product file parsed; the test is looking in the wrong directory")
	}
}
