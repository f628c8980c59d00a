package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestFragmentColumnByColumn pins the fragment contract: a fragment
// adopts validated columns one at a time, serves exactly those, reports
// the rest !ok from the typed accessors, and panics — a programming
// error, as on a virtual shell — on any read of an absent column or of
// whole rows. WithColumns and WithoutColumn derive new fragments and
// leave their sources as they were.
func TestFragmentColumnByColumn(t *testing.T) {
	src := snapshotTable(t)
	snap := src.Snapshot()
	frag := NewFragment(src.Name, src.Parent, src.Columns, src.RowCount())
	for _, ci := range []int{0, 2} {
		if err := frag.AdoptColumn(ci, &snap.Columns[ci]); err != nil {
			t.Fatal(err)
		}
	}
	requireServes := func(label string, tb *Table, cols ...int) {
		t.Helper()
		for c := range tb.Columns {
			_, _, okI := tb.IntCol(c)
			_, _, okF := tb.FloatCol(c)
			_, _, _, okS := tb.StrCol(c)
			resident := false
			for _, rc := range cols {
				resident = resident || rc == c
			}
			if !resident {
				if okI || okF || okS {
					t.Fatalf("%s: absent column %d served by a typed accessor", label, c)
				}
				mustPanicWith(t, label+" ValueAt", "absent", func() { tb.ValueAt(0, c) })
				mustPanicWith(t, label+" IsNullAt", "absent", func() { tb.IsNullAt(0, c) })
				continue
			}
			for r := 0; r < src.RowCount(); r++ {
				if g, w := tb.ValueAt(r, c), src.ValueAt(r, c); !g.BitEqual(w) {
					t.Fatalf("%s: (%d,%d) = %v, want %v", label, r, c, g, w)
				}
			}
		}
	}
	requireServes("two adopted", frag, 0, 2)
	for name, f := range map[string]func(){
		"Rows":        func() { frag.Rows() },
		"Snapshot":    func() { frag.Snapshot() },
		"ReadRowInto": func() { frag.ReadRowInto(make([]Value, len(frag.Columns)), 0) },
		"AppendRow":   func() { frag.AppendRow(make([]Value, len(frag.Columns))) },
	} {
		mustPanicWith(t, name, "fragment", f)
	}
	mustPanicWith(t, "WidthSum", "absent", func() { frag.WidthSum(1) })

	if err := frag.AdoptColumn(2, &snap.Columns[2]); err == nil || !strings.Contains(err.Error(), "already resident") {
		t.Fatalf("adopting a resident column: %v", err)
	}
	if err := frag.AdoptColumn(1, &snap.Columns[3]); err == nil {
		t.Fatal("adopted a column snapshot that describes another column")
	}
	bad := snap.Columns[1]
	bad.Ints = bad.Ints[:2]
	if err := frag.AdoptColumn(1, &bad); err == nil {
		t.Fatal("adopted a column that does not validate")
	}
	requireServes("after refused adoptions", frag, 0, 2)

	other := NewFragment(src.Name, src.Parent, src.Columns, src.RowCount())
	if err := other.AdoptColumn(3, &snap.Columns[3]); err != nil {
		t.Fatal(err)
	}
	merged := frag.WithColumns(other)
	requireServes("merged", merged, 0, 2, 3)
	dropped := merged.WithoutColumn(0)
	requireServes("dropped", dropped, 2, 3)
	requireServes("merge source", frag, 0, 2)
	requireServes("other merge source", other, 3)
	requireServes("drop source", merged, 0, 2, 3)

	if err := merged.AdoptColumn(1, &snap.Columns[1]); err != nil {
		t.Fatal(err)
	}
	whole, err := TableFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Snapshot(); len(got.Columns) != len(whole.Columns) || got.RowCount != whole.RowCount() {
		t.Fatalf("a fragment with every column resident snapshots %d columns × %d rows", len(got.Columns), got.RowCount)
	}
	requireServes("every column", merged, 0, 1, 2, 3)
}

func mustPanicWith(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", name)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %q, want a message mentioning %q", name, msg, want)
		}
	}()
	f()
}

// TestFirstDuplicateMatchesMap holds the reused open-addressing set of
// the dictionary duplicate check to a map over seeded dictionaries of
// every size from empty to several thousand entries, in an order that
// makes one pooled table serve small checks after large ones (stale
// epochs in the slots) and large ones after small (regrowth).
func TestFirstDuplicateMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	oracle := func(dict []string) (string, bool) {
		seen := make(map[string]bool, len(dict))
		for _, s := range dict {
			if seen[s] {
				return s, true
			}
			seen[s] = true
		}
		return "", false
	}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(8)
		if trial%3 == 0 {
			n = rng.Intn(5000)
		}
		dict := make([]string, n)
		for i := range dict {
			dict[i] = fmt.Sprintf("e%d", i)
		}
		if n > 1 && rng.Intn(2) == 0 {
			dict[rng.Intn(n)] = dict[rng.Intn(n)]
		}
		gs, gdup := firstDuplicate(dict)
		ws, wdup := oracle(dict)
		if gs != ws || gdup != wdup {
			t.Fatalf("trial %d (%d entries): firstDuplicate = %q, %v; a map says %q, %v", trial, n, gs, gdup, ws, wdup)
		}
	}
}
