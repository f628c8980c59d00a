// Package physical describes physical design structures — indexes
// (clustered-key style composite indexes with INCLUDE columns),
// materialized join views, and vertical partitions — shared by the
// what-if optimizer (costing), the execution engine (building), and the
// physical design tool (selection under a storage bound).
package physical

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rel"
	"repro/internal/stats"
)

// Index is a secondary index on a base table: composite key columns
// plus non-key INCLUDE columns (covering indexes, footnote 2 of the
// paper).
type Index struct {
	// Name is the index name.
	Name string
	// Table is the base table.
	Table string
	// Key lists the key columns in order.
	Key []string
	// Include lists covered non-key columns.
	Include []string
}

// ID returns a canonical identity string for deduplication.
func (i *Index) ID() string {
	return "idx:" + i.Table + "(" + strings.Join(i.Key, ",") + ")inc(" + strings.Join(sorted(i.Include), ",") + ")"
}

// sorted returns cols in sorted order, copying them only when they are
// not.
func sorted(cols []string) []string {
	if sort.StringsAreSorted(cols) {
		return cols
	}
	out := append([]string(nil), cols...)
	sort.Strings(out)
	return out
}

// Covers reports whether every column in cols is stored in the index.
func (i *Index) Covers(cols []string) bool {
	for _, c := range cols {
		if !i.HasColumn(c) {
			return false
		}
	}
	return true
}

// HasColumn reports whether the index stores the column.
func (i *Index) HasColumn(c string) bool {
	for _, k := range i.Key {
		if k == c {
			return true
		}
	}
	for _, k := range i.Include {
		if k == c {
			return true
		}
	}
	return false
}

// EstBytes estimates the index size from table statistics.
func (i *Index) EstBytes(ts *stats.TableStats) int64 {
	if ts == nil {
		return 0
	}
	width := 12.0 // row pointer + entry overhead
	for _, cols := range [2][]string{i.Key, i.Include} {
		for _, c := range cols {
			if cs := ts.Col(c); cs != nil {
				width += (1-cs.NullFrac)*colWidth(cs) + cs.NullFrac
			} else {
				width += 8
			}
		}
	}
	return int64(width * float64(ts.Rows))
}

// EstPages estimates the index size in pages.
func (i *Index) EstPages(ts *stats.TableStats) int64 {
	p := (i.EstBytes(ts) + rel.PageSize - 1) / rel.PageSize
	if p < 1 {
		p = 1
	}
	return p
}

func colWidth(cs *stats.ColumnStats) float64 {
	if cs.AvgWidth > 0 {
		return cs.AvgWidth
	}
	if cs.Typ == rel.TString {
		return 12
	}
	return 8
}

// View is a materialized parent-child join view: the join of Outer and
// Inner on Inner.PID = Outer.ID, carrying the listed columns of each.
// Column c of table t appears in the view as t__c.
type View struct {
	// Name is the view name.
	Name string
	// Outer is the parent-side table; Inner the child side.
	Outer, Inner string
	// OuterCols and InnerCols are the carried columns.
	OuterCols, InnerCols []string
}

// ID returns a canonical identity string for deduplication.
func (v *View) ID() string {
	return "view:" + v.Outer + "(" + strings.Join(sorted(v.OuterCols), ",") + ")x" +
		v.Inner + "(" + strings.Join(sorted(v.InnerCols), ",") + ")"
}

// ViewColumn returns the view column name carrying table.col, or ""
// when the view does not carry it.
func (v *View) ViewColumn(table, col string) string {
	cols := v.OuterCols
	if table == v.Inner {
		cols = v.InnerCols
	} else if table != v.Outer {
		return ""
	}
	for _, c := range cols {
		if c == col {
			return table + "__" + col
		}
	}
	return ""
}

// EstRows estimates the view cardinality: one row per inner (child)
// row that joins, approximated by the inner row count.
func (v *View) EstRows(p stats.Provider) int64 {
	in := p.TableStats(v.Inner)
	if in == nil {
		return 0
	}
	return in.Rows
}

// EstBytes estimates the materialized size.
func (v *View) EstBytes(p stats.Provider) int64 {
	rows := float64(v.EstRows(p))
	width := 8.0
	add := func(t string, cols []string) {
		ts := p.TableStats(t)
		if ts == nil {
			width += 8 * float64(len(cols))
			return
		}
		for _, c := range cols {
			if cs := ts.Col(c); cs != nil {
				width += (1-cs.NullFrac)*colWidth(cs) + cs.NullFrac
			} else {
				width += 8
			}
		}
	}
	add(v.Outer, v.OuterCols)
	add(v.Inner, v.InnerCols)
	return int64(width * rows)
}

// Stats derives TableStats for the view so the optimizer can cost
// access to it like a table.
func (v *View) Stats(p stats.Provider) *stats.TableStats {
	rows := v.EstRows(p)
	ts := &stats.TableStats{Name: v.Name, Rows: rows, Cols: make(map[string]*stats.ColumnStats)}
	var width float64 = 8
	copyCols := func(t string, cols []string) {
		src := p.TableStats(t)
		for _, c := range cols {
			name := t + "__" + c
			if src != nil {
				if cs := src.Col(c); cs != nil {
					sc := *cs
					if sc.Distinct > rows {
						sc.Distinct = rows
					}
					ts.Cols[name] = &sc
					width += (1-sc.NullFrac)*colWidth(&sc) + sc.NullFrac
					continue
				}
			}
			ts.Cols[name] = &stats.ColumnStats{Typ: rel.TInt, Count: rows, Distinct: rows, AvgWidth: 8}
			width += 8
		}
	}
	copyCols(v.Outer, v.OuterCols)
	copyCols(v.Inner, v.InnerCols)
	ts.RowBytes = width
	return ts
}

// VPartition is a vertical partitioning of a base table: each group
// holds the listed non-key columns; every group replicates ID and PID
// (the definition of Section 3.1).
type VPartition struct {
	// Table is the partitioned base table.
	Table string
	// Groups lists the non-key columns of each partition.
	Groups [][]string
}

// ID returns a canonical identity string for deduplication.
func (vp *VPartition) ID() string {
	parts := make([]string, len(vp.Groups))
	for i, g := range vp.Groups {
		gs := append([]string(nil), g...)
		sort.Strings(gs)
		parts[i] = strings.Join(gs, ",")
	}
	sort.Strings(parts)
	return fmt.Sprintf("vpart:%s[%s]", vp.Table, strings.Join(parts, "|"))
}

// GroupTable returns the table name of partition group g.
func (vp *VPartition) GroupTable(g int) string {
	return fmt.Sprintf("%s__g%d", vp.Table, g)
}

// GroupsForOrNil is GroupsFor tolerating a nil receiver (unpartitioned
// tables yield nil groups).
func (vp *VPartition) GroupsForOrNil(cols []string) []int {
	if vp == nil {
		return nil
	}
	return vp.GroupsFor(cols)
}

// GroupsFor returns the indices of the groups needed to reconstruct the
// given non-key columns (key columns are in every group).
func (vp *VPartition) GroupsFor(cols []string) []int {
	var out []int
	for gi, g := range vp.Groups {
		need := false
		for _, c := range cols {
			if c == rel.IDColumn || c == rel.PIDColumn {
				continue
			}
			for _, gc := range g {
				if gc == c {
					need = true
					break
				}
			}
			if need {
				break
			}
		}
		if need {
			out = append(out, gi)
		}
	}
	if len(out) == 0 && len(vp.Groups) > 0 {
		out = []int{0} // key-only access reads the first group
	}
	return out
}

// EstBytes estimates the total partitioned size: base data plus
// replicated keys per extra group.
func (vp *VPartition) EstBytes(ts *stats.TableStats) int64 {
	if ts == nil {
		return 0
	}
	extra := int64(len(vp.Groups)-1) * 16 * ts.Rows
	if extra < 0 {
		extra = 0
	}
	return ts.Bytes() + extra
}

// Config is a physical configuration: the set of structures the
// optimizer may use.
type Config struct {
	Indexes    []*Index
	Views      []*View
	Partitions []*VPartition
}

// Clone returns a shallow copy with independent slices.
func (c *Config) Clone() *Config {
	return &Config{
		Indexes:    append([]*Index(nil), c.Indexes...),
		Views:      append([]*View(nil), c.Views...),
		Partitions: append([]*VPartition(nil), c.Partitions...),
	}
}

// AddIndex appends an index unless an identical one exists.
func (c *Config) AddIndex(i *Index) bool {
	id := i.ID()
	for _, e := range c.Indexes {
		if e.ID() == id {
			return false
		}
	}
	c.Indexes = append(c.Indexes, i)
	return true
}

// AddView appends a view unless an identical one exists.
func (c *Config) AddView(v *View) bool {
	id := v.ID()
	for _, e := range c.Views {
		if e.ID() == id {
			return false
		}
	}
	c.Views = append(c.Views, v)
	return true
}

// AddPartition appends a vertical partitioning; at most one per table.
func (c *Config) AddPartition(vp *VPartition) bool {
	for _, e := range c.Partitions {
		if e.Table == vp.Table {
			return false
		}
	}
	c.Partitions = append(c.Partitions, vp)
	return true
}

// PartitionOf returns the vertical partitioning of a table, or nil.
func (c *Config) PartitionOf(table string) *VPartition {
	for _, vp := range c.Partitions {
		if vp.Table == table {
			return vp
		}
	}
	return nil
}

// View returns the named view, or nil.
func (c *Config) View(name string) *View {
	for _, v := range c.Views {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// EstBytes estimates the configuration's structure size (indexes and
// views; partitions count only their key-replication overhead).
func (c *Config) EstBytes(p stats.Provider) int64 {
	var n int64
	for _, i := range c.Indexes {
		n += i.EstBytes(p.TableStats(i.Table))
	}
	for _, v := range c.Views {
		n += v.EstBytes(p)
	}
	for _, vp := range c.Partitions {
		ts := p.TableStats(vp.Table)
		if ts != nil {
			n += vp.EstBytes(ts) - ts.Bytes()
		}
	}
	return n
}

// String summarizes the configuration.
func (c *Config) String() string {
	var b strings.Builder
	for _, i := range c.Indexes {
		fmt.Fprintf(&b, "INDEX %s ON %s(%s)", i.Name, i.Table, strings.Join(i.Key, ","))
		if len(i.Include) > 0 {
			fmt.Fprintf(&b, " INCLUDE(%s)", strings.Join(i.Include, ","))
		}
		b.WriteString("\n")
	}
	for _, v := range c.Views {
		fmt.Fprintf(&b, "VIEW %s AS %s JOIN %s\n", v.Name, v.Outer, v.Inner)
	}
	for _, vp := range c.Partitions {
		fmt.Fprintf(&b, "VPARTITION %s INTO %d GROUPS\n", vp.Table, len(vp.Groups))
	}
	return b.String()
}
