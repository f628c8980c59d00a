package rel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// prefixCols are NULL-heavy columns of every type.
var prefixCols = []Column{
	{Name: IDColumn, Typ: TInt},
	{Name: "n", Typ: TInt, Nullable: true},
	{Name: "f", Typ: TFloat, Nullable: true},
	{Name: "s", Typ: TString, Nullable: true},
}

// prefixRow is row i of a deterministic stream over prefixCols: about
// half of every nullable column is NULL, and the strings repeat, so a
// prefix uses only part of the dictionary.
func prefixRow(r *rand.Rand, i int) []Value {
	row := []Value{Int(int64(i)), NullOf(TInt), NullOf(TFloat), NullOf(TString)}
	if r.Intn(2) == 0 {
		row[1] = Int(r.Int63n(100) - 50)
	}
	if r.Intn(2) == 0 {
		row[2] = Float([]float64{math.NaN(), math.Copysign(0, -1), 1.5}[r.Intn(3)])
	}
	if r.Intn(2) == 0 {
		row[3] = Str(fmt.Sprintf("s-%d", r.Intn(i/8+1)))
	}
	return row
}

// snapshotsEqual reports whether two snapshots hold the same columnar
// state: every vector equal element by element (floats by bits), with a
// nil vector equal to an empty one.
func snapshotsEqual(a, b *TableSnapshot) bool {
	if a.Name != b.Name || a.Parent != b.Parent || a.RowCount != b.RowCount || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		ac, bc := &a.Columns[i], &b.Columns[i]
		if ac.Col != bc.Col || !slices.Equal(ac.NullWords, bc.NullWords) || !slices.Equal(ac.Ints, bc.Ints) ||
			!slices.Equal(ac.Codes, bc.Codes) || !slices.Equal(ac.Dict, bc.Dict) ||
			!slices.EqualFunc(ac.Floats, bc.Floats, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// TestPrefixMatchesRebuiltTable: Prefix(n) is snapshot-equal to a table
// that appended only the first n rows, with the same Bytes and
// RowCount, at the bitmap word boundaries and on either side of them.
func TestPrefixMatchesRebuiltTable(t *testing.T) {
	const rows = 200
	r := rand.New(rand.NewSource(5))
	src := NewTable("tail", prefixCols)
	src.Parent = "root"
	all := make([][]Value, rows)
	for i := range all {
		all[i] = prefixRow(r, i)
		src.AppendRow(all[i])
	}
	for _, n := range []int{0, 1, 63, 64, 65, rows} {
		want := NewTable("tail", prefixCols)
		want.Parent = "root"
		for _, row := range all[:n] {
			want.AppendRow(row)
		}
		got := src.Prefix(n)
		if !snapshotsEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("Prefix(%d) is not snapshot-equal to a table of its rows", n)
		}
		if got.Bytes() != want.Bytes() || got.RowCount() != n {
			t.Fatalf("Prefix(%d): %d rows / %d bytes, want %d / %d", n, got.RowCount(), got.Bytes(), n, want.Bytes())
		}
		if _, err := TableFromSnapshot(got.Snapshot()); err != nil {
			t.Fatalf("Prefix(%d) fails validation: %v", n, err)
		}
		// Appending to the prefix must leave the source alone.
		got.AppendRow(all[rows-1])
		if last := min(n, rows-1); src.RowCount() != rows || !src.ValueAt(last, 3).BitEqual(all[last][3]) {
			t.Fatalf("appending to Prefix(%d) changed its source", n)
		}
	}
	mustPanicWith(t, "Prefix past the end", "prefix of 201 rows", func() { src.Prefix(rows + 1) })
}

// TestPrefixUnderAppends: readers that take prefixes under the writer's
// mutex and read them outside it, while one appender keeps growing the
// table, always read exactly the rows of a table rebuilt from the same
// stream. Under -race this is the check that a prefix never shares a
// word the appender rewrites.
func TestPrefixUnderAppends(t *testing.T) {
	const rows, readers = 3000, 3
	r := rand.New(rand.NewSource(9))
	all := make([][]Value, rows)
	oracle := NewTable("tail", prefixCols)
	for i := range all {
		all[i] = prefixRow(r, i)
		oracle.AppendRow(all[i])
	}
	var mu sync.Mutex
	src := NewTable("tail", prefixCols)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				p := src.Prefix(src.RowCount())
				mu.Unlock()
				for row := 0; row < p.RowCount(); row++ {
					for c := range prefixCols {
						if got, want := p.ValueAt(row, c), oracle.ValueAt(row, c); !got.BitEqual(want) {
							errs <- fmt.Errorf("prefix of %d rows: value (%d,%d) is %v, want %v", p.RowCount(), row, c, got, want)
							return
						}
					}
				}
				if p.Bytes() != oracle.Prefix(p.RowCount()).Bytes() {
					errs <- fmt.Errorf("prefix of %d rows accounts %d bytes", p.RowCount(), p.Bytes())
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < rows; i += 7 {
		mu.Lock()
		for _, row := range all[i:min(i+7, rows)] {
			src.AppendRow(row)
		}
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
