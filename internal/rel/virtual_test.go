package rel

import (
	"errors"
	"strings"
	"testing"
)

// TestVirtualTableMetadataAndGuards pins the shell contract: metadata
// accessors serve the declared shape without loading, typed kernel
// accessors report ok=false (no clean vector available), and the
// materializing data accessors panic until Hydrate.
func TestVirtualTableMetadataAndGuards(t *testing.T) {
	src := snapshotTable(t)
	src.Parent = "root"
	v := NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount(),
		src.Bytes(), func() (*Table, error) { return src, nil })

	if v.Resident() {
		t.Fatal("fresh shell reports resident")
	}
	if v.RowCount() != src.RowCount() || v.Bytes() != src.Bytes() {
		t.Fatalf("shell metadata %d/%d, want %d/%d",
			v.RowCount(), v.Bytes(), src.RowCount(), src.Bytes())
	}
	if v.ColIndex("title") != src.ColIndex("title") || !v.HasColumn(IDColumn) {
		t.Fatal("shell column metadata differs from source")
	}
	if _, _, ok := v.IntCol(0); ok {
		t.Fatal("IntCol on a shell must report ok=false")
	}
	if _, _, ok := v.FloatCol(3); ok {
		t.Fatal("FloatCol on a shell must report ok=false")
	}
	if _, _, _, ok := v.StrCol(2); ok {
		t.Fatal("StrCol on a shell must report ok=false")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on a shell did not panic", name)
			}
			if !strings.Contains(r.(string), "virtual shell") {
				t.Fatalf("%s panic = %v, want virtual-shell message", name, r)
			}
		}()
		f()
	}
	mustPanic("Rows", func() { v.Rows() })
	mustPanic("ValueAt", func() { v.ValueAt(0, 0) })
	mustPanic("IsNullAt", func() { v.IsNullAt(0, 0) })
	mustPanic("ReadRowInto", func() { v.ReadRowInto(make([]Value, len(v.Columns)), 0) })
	mustPanic("AppendRow", func() { v.AppendRow(make([]Value, len(v.Columns))) })
	mustPanic("Snapshot", func() { v.Snapshot() })
}

// TestVirtualTableHydrate resolves a shell and checks the result is
// bit-identical to the source, that Hydrate is idempotent, and that a
// resident table treats Hydrate as a no-op.
func TestVirtualTableHydrate(t *testing.T) {
	src := snapshotTable(t)
	loads := 0
	v := NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount(),
		src.Bytes(), func() (*Table, error) { loads++; return src, nil })

	if err := v.Hydrate(); err != nil {
		t.Fatal(err)
	}
	if !v.Resident() {
		t.Fatal("hydrated shell still reports virtual")
	}
	tablesBitEqual(t, src, v)
	if _, _, ok := v.IntCol(0); !ok {
		t.Fatal("IntCol must work after Hydrate")
	}
	if err := v.Hydrate(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	if err := src.Hydrate(); err != nil {
		t.Fatalf("Hydrate on a resident table: %v", err)
	}
}

// TestVirtualTableHydrateMismatch covers every declared-shape check:
// the loader returning a table that moved on (rows, bytes,
// columns) must be reported, never served.
func TestVirtualTableHydrateMismatch(t *testing.T) {
	src := snapshotTable(t)
	loadErr := errors.New("segment vanished")
	cases := []struct {
		name string
		v    *Table
		want string
	}{
		{"load error",
			NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount(), src.Bytes(),
				func() (*Table, error) { return nil, loadErr }),
			"segment vanished"},
		{"row mismatch",
			NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount()+1, src.Bytes(),
				func() (*Table, error) { return src, nil }),
			"shell declares"},
		{"bytes mismatch",
			NewVirtualTable(src.Name, src.Parent, src.Columns, src.RowCount(), src.Bytes()-1,
				func() (*Table, error) { return src, nil }),
			"shell declares"},
		{"column mismatch",
			NewVirtualTable(src.Name, src.Parent, append([]Column{{Name: IDColumn, Typ: TString}}, src.Columns[1:]...),
				src.RowCount(), src.Bytes(),
				func() (*Table, error) { return src, nil }),
			"column 0"},
	}
	for _, tc := range cases {
		err := tc.v.Hydrate()
		if err == nil {
			t.Fatalf("%s: Hydrate succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if tc.v.Resident() {
			t.Fatalf("%s: failed Hydrate left the shell resident", tc.name)
		}
	}
}
