package rel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Well-known column names: every shredded relation carries an ID
// primary key and a PID foreign key to its parent relation (Section 2,
// mapping rule 1).
const (
	IDColumn  = "ID"
	PIDColumn = "PID"
)

// Column describes one column of a table.
type Column struct {
	// Name is the SQL column name.
	Name string
	// Typ is the column type.
	Typ Type
	// Nullable marks columns that may hold NULL (optional elements,
	// repetition-split occurrence columns, union-projection slots).
	Nullable bool
	// LeafID is the schema node ID of the leaf element this column
	// stores, or 0 for the ID/PID key columns.
	LeafID int
	// Occurrence is the 1-based repetition-split occurrence this column
	// stores (author_1, author_2, ...); 0 for scalar columns.
	Occurrence int
}

// Admits reports whether the column may hold v: v fits its type
// (Value.Fits), and v is not NULL unless the column is Nullable. Every
// way into a table checks values with it.
func (c *Column) Admits(v Value) bool { return v.Fits(c.Typ) && (c.Nullable || !v.Null) }

// TypeDecl renders the column's type as CREATE TABLE declares it: INT,
// or INT NOT NULL when the column is not Nullable.
func (c *Column) TypeDecl() string {
	if c.Nullable {
		return c.Typ.String()
	}
	return c.Typ.String() + " NOT NULL"
}

// Table is a columnar table, and the column vectors are the only form
// it keeps its data in: one typed vector per column (int64, float64, or
// dictionary-coded strings) plus a null bitmap. The executor's kernels
// and tuple fills read the vectors through the typed accessors
// (IntCol/FloatCol/StrCol), structure builds through ValueAt. A table
// only grows: AppendRow is its one mutation, so its row count is also
// its version. Rows and ReadRowInto rebuild bit-identical rows for a
// caller that wants them — the reference executor, the ingest benchmark's
// read-back, tests — and nothing of what they return stays on the table.
type Table struct {
	// Name is the relation name.
	Name string
	// Columns are the table's columns; Columns[0] is ID, Columns[1] is
	// PID for shredded relations.
	Columns []Column
	// Parent is the name of the parent relation PID references; empty
	// for the root relation.
	Parent string

	cols   []colVec
	nrows  int
	colIdx map[string]int
	bytes  int64
	// absent counts the columns whose vectors are not resident; nonzero
	// only on a fragment (NewFragment).
	absent int

	// virtual marks a schema-only shell (NewVirtualTable) whose data is
	// not resident: metadata accessors work, data accessors do not until
	// Hydrate resolves the rows through load. The flag is atomic so hot
	// readers can check it without a lock; Hydrate publishes t.cols
	// before clearing it, and the atomic load/store pair orders the two.
	virtual   atomic.Bool
	load      func() (*Table, error)
	hydrateMu sync.Mutex
}

// NewTable creates an empty table.
func NewTable(name string, cols []Column) *Table {
	t := &Table{Name: name, Columns: cols, colIdx: mustIndexColumns(name, cols)}
	t.cols = make([]colVec, len(cols))
	for i, c := range cols {
		t.cols[i] = newColVec(c.Typ)
	}
	return t
}

// indexColumns maps every column name to its position, refusing a
// repeated name.
func indexColumns(table string, cols []Column) (map[string]int, error) {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("rel: duplicate column %s.%s", table, c.Name)
		}
		idx[c.Name] = i
	}
	return idx, nil
}

// mustIndexColumns is indexColumns for the constructors, to which a
// repeated name is a programming error.
func mustIndexColumns(table string, cols []Column) map[string]int {
	idx, err := indexColumns(table, cols)
	if err != nil {
		panic(err.Error())
	}
	return idx
}

// NewVirtualTable creates a schema-only shell that reports the name,
// columns, parent, row count, and byte accounting of a real table whose
// data is not resident. Metadata accessors (RowCount, Bytes, ColIndex,
// ...) work immediately; data accessors
// require a prior Hydrate call, which resolves the resident form
// through load and must land on exactly the declared shape. Typed
// kernel accessors (IntCol/FloatCol/StrCol) report ok=false while
// unhydrated, matching their "no vector available" contract.
func NewVirtualTable(name, parent string, cols []Column, rows int, bytes int64, load func() (*Table, error)) *Table {
	t := &Table{Name: name, Parent: parent, Columns: cols,
		nrows: rows, bytes: bytes,
		colIdx: mustIndexColumns(name, cols), load: load}
	t.virtual.Store(true)
	return t
}

// NewFragment creates a table of rows rows over cols with no column
// resident yet: a fragment. Its metadata accessors work at once, and
// AdoptColumn makes its columns resident one at a time. While a column is
// absent, the typed accessors report ok=false for it and ValueAt and
// IsNullAt panic on it; every accessor that reads whole rows (Rows,
// ReadRowInto, Snapshot, AppendRow) panics while any column is
// absent. Those panics are programming errors, as on a virtual shell: a
// reader of a fragment reads only the columns it asked for. A fragment
// keeps no byte accounting (Bytes is 0); whoever caches it budgets it.
func NewFragment(name, parent string, cols []Column, rows int) *Table {
	return newFragment(name, parent, cols, rows, mustIndexColumns(name, cols))
}

// newFragment is NewFragment over an already built column index.
func newFragment(name, parent string, cols []Column, rows int, idx map[string]int) *Table {
	t := &Table{Name: name, Parent: parent, Columns: cols, nrows: rows, colIdx: idx, absent: len(cols)}
	t.cols = make([]colVec, len(cols))
	for i, c := range cols {
		t.cols[i] = colVec{typ: c.Typ, absent: true}
	}
	return t
}

// WithColumns returns a fragment of the same rows holding every column
// resident in t or in src, which must be a fragment of the same table.
// Neither t nor src changes, so a fragment already handed out stays what
// it was; the result shares their vectors and metadata.
func (t *Table) WithColumns(src *Table) *Table {
	if len(src.cols) != len(t.cols) || src.nrows != t.nrows {
		panic(fmt.Sprintf("rel: merging a fragment of %d rows × %d columns into one of %d × %d",
			src.nrows, len(src.cols), t.nrows, len(t.cols)))
	}
	out := t.derive()
	for i := range src.cols {
		if out.cols[i].absent && !src.cols[i].absent {
			out.cols[i] = src.cols[i]
			out.absent--
		}
	}
	return out
}

// WithoutColumn returns a fragment of the same rows holding t's resident
// columns except ci. t does not change.
func (t *Table) WithoutColumn(ci int) *Table {
	out := t.derive()
	if !out.cols[ci].absent {
		out.cols[ci] = colVec{typ: out.cols[ci].typ, absent: true}
		out.absent++
	}
	return out
}

// derive copies t's metadata and column slots into a new table whose
// slots can change without touching t.
func (t *Table) derive() *Table {
	t.requireResident()
	return &Table{Name: t.Name, Parent: t.Parent, Columns: t.Columns, nrows: t.nrows,
		colIdx: t.colIdx, absent: t.absent, cols: slices.Clone(t.cols)}
}

// Resident reports whether the table's data is readable: always true
// for regular tables, true for a virtual shell only after Hydrate.
func (t *Table) Resident() bool { return !t.virtual.Load() }

// Hydrate resolves a virtual shell to its resident form; it is a no-op
// on a resident table. The loaded table must match the shell's declared
// schema, row count, and byte accounting exactly — a
// mismatch means the backing store moved on since the shell was created
// and is reported as an error, never served.
func (t *Table) Hydrate() error {
	if !t.virtual.Load() {
		return nil
	}
	t.hydrateMu.Lock()
	defer t.hydrateMu.Unlock()
	if !t.virtual.Load() {
		return nil
	}
	src, err := t.load()
	if err != nil {
		return fmt.Errorf("rel: hydrating %s: %w", t.Name, err)
	}
	if src.absent > 0 {
		return fmt.Errorf("rel: hydrating %s: loaded a fragment with %d columns absent", t.Name, src.absent)
	}
	if src.nrows != t.nrows || src.bytes != t.bytes || len(src.Columns) != len(t.Columns) {
		return fmt.Errorf("rel: hydrating %s: loaded %d rows / %d bytes, shell declares %d / %d",
			t.Name, src.nrows, src.bytes, t.nrows, t.bytes)
	}
	for i := range t.Columns {
		if src.Columns[i] != t.Columns[i] {
			return fmt.Errorf("rel: hydrating %s: column %d is %+v, shell declares %+v", t.Name, i, src.Columns[i], t.Columns[i])
		}
	}
	t.cols = src.cols
	t.virtual.Store(false)
	return nil
}

// requireResident panics when a data accessor touches an unhydrated
// shell — a programming error (callers with an error path Hydrate
// first), not a data error.
func (t *Table) requireResident() {
	if t.virtual.Load() {
		panic(fmt.Sprintf("rel: table %s is a virtual shell; call Hydrate before reading rows", t.Name))
	}
}

// requireWhole is requireResident for accessors that read every column:
// it also panics on a fragment with an absent column.
func (t *Table) requireWhole() {
	t.requireResident()
	if t.absent > 0 {
		panic(fmt.Sprintf("rel: table %s is a fragment with %d of its %d columns absent; it has no whole rows", t.Name, t.absent, len(t.Columns)))
	}
}

// requireColumn is requireResident for accessors that read column ci:
// it also panics when ci is absent from a fragment.
func (t *Table) requireColumn(ci int) {
	t.requireResident()
	if t.cols[ci].absent {
		panic(fmt.Sprintf("rel: column %s.%s is absent from this fragment", t.Name, t.Columns[ci].Name))
	}
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool { return t.ColIndex(name) >= 0 }

// RowBytes returns the byte-accounting delta one AppendRow of row
// applies: the per-row overhead plus each value's width. AppendRow
// itself uses it, so consumers that predict a table's accounting
// without appending cannot drift from the real bookkeeping.
func RowBytes(row []Value) int64 {
	b := int64(8) // per-row overhead
	for _, v := range row {
		b += int64(v.Width())
	}
	return b
}

// AppendRow adds a row; it must have exactly one value per column, and
// each column must admit its value (Column.Admits) — a loader coerces at
// the door and refuses a NULL in a NOT NULL column, so any other value
// is a programmer error and panics. The values are decomposed into the
// column vectors — the slice is not retained, so callers may reuse it.
func (t *Table) AppendRow(row []Value) {
	t.requireWhole()
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("rel: row width %d != %d columns in %s", len(row), len(t.Columns), t.Name))
	}
	for i, v := range row {
		if c := &t.Columns[i]; !c.Admits(v) {
			panic(fmt.Sprintf("rel: %#v does not fit %s.%s, a %s column", v, t.Name, c.Name, c.TypeDecl()))
		}
	}
	for i, v := range row {
		t.cols[i].append(v)
	}
	t.nrows++
	t.bytes += RowBytes(row)
}

// Prefix returns a table of t's first n rows (0 ≤ n ≤ RowCount),
// snapshot-equal to one that appended just those rows. It shares t's
// typed vectors and dictionary entries, cut to the entries the n rows
// use, and copies only the null bitmaps whose last word is partial,
// since AppendRow rewrites that word in place. Prefix reads t, so like
// every reader it must be exclusive with AppendRow; afterwards t may
// grow while the prefix is read, because AppendRow writes only past row
// n. Appending to the prefix leaves t unchanged.
func (t *Table) Prefix(n int) *Table {
	t.requireWhole()
	if n < 0 || n > t.nrows {
		panic(fmt.Sprintf("rel: prefix of %d rows of %s, which has %d", n, t.Name, t.nrows))
	}
	p := &Table{Name: t.Name, Parent: t.Parent, Columns: t.Columns, colIdx: t.colIdx,
		nrows: n, bytes: t.bytes, cols: make([]colVec, len(t.cols))}
	whole := n == t.nrows
	if !whole {
		p.bytes = 8 * int64(n)
	}
	for i := range t.cols {
		p.cols[i] = t.cols[i].prefix(n, whole)
		if !whole {
			p.bytes += p.cols[i].widthSum()
		}
	}
	return p
}

// Concat returns the table over cols of parts' rows in order,
// snapshot-equal to one that appended those rows, and sharing nothing
// with the parts, each a whole resident table over exactly cols (any
// other part panics). Every vector is sized once for the rows; each
// part's null bitmap shifts in behind the rows before it. A string
// column reserves its dictionary for every part's entries, interns each
// part's dictionary in code order — first-appearance order over the
// part, so over the whole result too — and remaps the part's non-NULL
// codes through it; a NULL row keeps code 0. The result's dictionaries
// keep no index and no spare capacity, and its bytes are recomputed as
// AppendRow would have accumulated them. Zero parts give NewTable's
// empty table.
func Concat(name, parent string, cols []Column, parts ...*Table) *Table {
	rows := 0
	for _, p := range parts {
		p.requireWhole()
		if !slices.Equal(p.Columns, cols) {
			panic(fmt.Sprintf("rel: concatenating table %s over %v into %s over %v", p.Name, p.Columns, name, cols))
		}
		rows += p.nrows
	}
	t := &Table{Name: name, Parent: parent, Columns: cols, nrows: rows,
		colIdx: mustIndexColumns(name, cols), cols: make([]colVec, len(cols)), bytes: 8 * int64(rows)}
	for ci, c := range cols {
		t.cols[ci] = concatCol(c.Typ, ci, rows, parts)
		t.bytes += t.cols[ci].widthSum()
	}
	return t
}

// RowCount returns the number of rows. A table changes only by
// AppendRow, so consumers that cache structures derived from the rows —
// the engine's plan-lifetime key indexes and prepared plans — snapshot
// it and refuse to serve the cache after the table grew past it.
func (t *Table) RowCount() int { return t.nrows }

// Bytes returns the accounted data size in bytes.
func (t *Table) Bytes() int64 { return t.bytes }

// Pages returns the accounted data size in pages (minimum 1).
func (t *Table) Pages() int64 {
	p := (t.bytes + PageSize - 1) / PageSize
	if p < 1 {
		p = 1
	}
	return p
}

// ValueAt returns the value at (row, col), bit-identical to what
// AppendRow stored.
func (t *Table) ValueAt(row, col int) Value {
	t.requireColumn(col)
	return t.cols[col].value(row)
}

// IsNullAt reports whether the value at (row, col) is NULL.
func (t *Table) IsNullAt(row, col int) bool {
	t.requireColumn(col)
	return t.cols[col].nulls.Get(row)
}

// WidthSum returns Value.Width summed over the cells of column ci, read
// off its vectors: 8 per number and 1 per NULL from the null bitmap's
// count, and one length per string.
func (t *Table) WidthSum(ci int) int64 {
	t.requireColumn(ci)
	return t.cols[ci].widthSum()
}

// ReadRowInto materializes row rid into dst, which must have exactly
// one slot per column.
func (t *Table) ReadRowInto(dst []Value, rid int) {
	t.requireWhole()
	if len(dst) != len(t.Columns) {
		panic(fmt.Sprintf("rel: dst width %d != %d columns in %s", len(dst), len(t.Columns), t.Name))
	}
	for i := range t.cols {
		dst[i] = t.cols[i].value(rid)
	}
}

// IntCol returns the int64 vector and null bitmap of column ci, with
// ok=false only when the column is not TInt, is absent, or the table is
// a virtual shell. The vector includes rows whose bit is set in the
// bitmap (their payload slot is 0).
func (t *Table) IntCol(ci int) (vals []int64, nulls *Bitmap, ok bool) {
	if t.virtual.Load() {
		return nil, nil, false
	}
	cv := &t.cols[ci]
	if cv.typ != TInt || cv.absent {
		return nil, nil, false
	}
	return cv.ints, &cv.nulls, true
}

// FloatCol is IntCol for TFloat columns.
func (t *Table) FloatCol(ci int) (vals []float64, nulls *Bitmap, ok bool) {
	if t.virtual.Load() {
		return nil, nil, false
	}
	cv := &t.cols[ci]
	if cv.typ != TFloat || cv.absent {
		return nil, nil, false
	}
	return cv.floats, &cv.nulls, true
}

// StrCol returns the dictionary codes, dictionary, and null bitmap of
// a TString column, under IntCol's conditions.
func (t *Table) StrCol(ci int) (codes []uint32, dict *Dict, nulls *Bitmap, ok bool) {
	if t.virtual.Load() {
		return nil, nil, nil, false
	}
	cv := &t.cols[ci]
	if cv.typ != TString || cv.absent {
		return nil, nil, nil, false
	}
	return cv.codes, cv.dict, &cv.nulls, true
}

// Rows materializes the whole table as fresh row slices the caller owns
// — 40 bytes a cell plus a header a row, built anew on every call, so
// call it once and keep the result. The reference executor's full-table
// fetches and tests use it; everything else reads the column vectors.
// Values are bit-identical to what AppendRow stored.
func (t *Table) Rows() [][]Value {
	t.requireWhole()
	w := len(t.Columns)
	rows := make([][]Value, t.nrows)
	if t.nrows > 0 {
		flat := make([]Value, t.nrows*w)
		for ci := range t.cols {
			cv := &t.cols[ci]
			for r := 0; r < t.nrows; r++ {
				flat[r*w+ci] = cv.value(r)
			}
		}
		for r := range rows {
			rows[r] = flat[r*w : (r+1)*w : (r+1)*w]
		}
	}
	return rows
}

// Database is a named collection of tables.
type Database struct {
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Add registers a table; duplicate names panic (schema compilation
// guarantees uniqueness).
func (d *Database) Add(t *Table) {
	if _, dup := d.tables[t.Name]; dup {
		panic(fmt.Sprintf("rel: duplicate table %s", t.Name))
	}
	d.tables[t.Name] = t
	d.order = append(d.order, t.Name)
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// Tables returns all tables in creation order.
func (d *Database) Tables() []*Table {
	out := make([]*Table, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.tables[n])
	}
	return out
}

// Bytes returns the total accounted data size.
func (d *Database) Bytes() int64 {
	var n int64
	for _, t := range d.tables {
		n += t.Bytes()
	}
	return n
}

// Pages returns the total accounted page count.
func (d *Database) Pages() int64 {
	var n int64
	for _, t := range d.tables {
		n += t.Pages()
	}
	return n
}
