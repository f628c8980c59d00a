package physical

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/stats"
)

func tableStats() *stats.TableStats {
	return &stats.TableStats{
		Name: "movie", Rows: 10000, RowBytes: 80,
		Cols: map[string]*stats.ColumnStats{
			"ID":    {Count: 10000, Distinct: 10000, AvgWidth: 8, Typ: rel.TInt},
			"PID":   {Count: 10000, Distinct: 1, AvgWidth: 8, Typ: rel.TInt},
			"title": {Count: 10000, Distinct: 10000, AvgWidth: 20, Typ: rel.TString},
			"year":  {Count: 10000, Distinct: 55, AvgWidth: 8, Typ: rel.TInt},
		},
	}
}

func TestIndexIdentityAndCoverage(t *testing.T) {
	a := &Index{Name: "x", Table: "movie", Key: []string{"year"}, Include: []string{"title", "ID"}}
	b := &Index{Name: "y", Table: "movie", Key: []string{"year"}, Include: []string{"ID", "title"}}
	if a.ID() != b.ID() {
		t.Errorf("include order should not change identity: %s vs %s", a.ID(), b.ID())
	}
	if !a.Covers([]string{"year", "title", "ID"}) {
		t.Error("Covers should include key and include columns")
	}
	if a.Covers([]string{"genre"}) {
		t.Error("Covers should reject missing columns")
	}
}

func TestIndexSizeScalesWithColumns(t *testing.T) {
	ts := tableStats()
	small := &Index{Table: "movie", Key: []string{"year"}}
	big := &Index{Table: "movie", Key: []string{"year"}, Include: []string{"title", "ID"}}
	if small.EstBytes(ts) >= big.EstBytes(ts) {
		t.Errorf("wider index not bigger: %d vs %d", small.EstBytes(ts), big.EstBytes(ts))
	}
	if small.EstPages(ts) < 1 {
		t.Error("pages must be at least 1")
	}
}

func TestViewColumnsAndStats(t *testing.T) {
	v := &View{Name: "v", Outer: "movie", Inner: "actor",
		OuterCols: []string{"ID", "year"}, InnerCols: []string{"actor"}}
	if got := v.ViewColumn("movie", "year"); got != "movie__year" {
		t.Errorf("ViewColumn = %q", got)
	}
	if got := v.ViewColumn("movie", "title"); got != "" {
		t.Errorf("uncarried column should be empty, got %q", got)
	}
	if got := v.ViewColumn("elsewhere", "x"); got != "" {
		t.Errorf("foreign table should be empty, got %q", got)
	}
	prov := stats.MapProvider{
		"movie": tableStats(),
		"actor": {Name: "actor", Rows: 40000, RowBytes: 30, Cols: map[string]*stats.ColumnStats{
			"actor": {Count: 40000, Distinct: 2000, AvgWidth: 16, Typ: rel.TString},
		}},
	}
	if v.EstRows(prov) != 40000 {
		t.Errorf("EstRows = %d", v.EstRows(prov))
	}
	ts := v.Stats(prov)
	if ts.Cols["movie__year"] == nil || ts.Cols["actor__actor"] == nil {
		t.Errorf("view stats columns: %v", ts.Cols)
	}
	if ts.Rows != 40000 {
		t.Errorf("view stats rows = %d", ts.Rows)
	}
}

func TestVPartitionGroups(t *testing.T) {
	vp := &VPartition{Table: "movie", Groups: [][]string{{"title"}, {"year", "genre"}}}
	if got := vp.GroupsFor([]string{"title"}); len(got) != 1 || got[0] != 0 {
		t.Errorf("GroupsFor(title) = %v", got)
	}
	if got := vp.GroupsFor([]string{"title", "genre"}); len(got) != 2 {
		t.Errorf("GroupsFor(title,genre) = %v", got)
	}
	// Key-only access reads one group.
	if got := vp.GroupsFor([]string{"ID"}); len(got) != 1 {
		t.Errorf("GroupsFor(ID) = %v", got)
	}
	if got := (*VPartition)(nil).GroupsForOrNil([]string{"x"}); got != nil {
		t.Errorf("nil receiver should yield nil, got %v", got)
	}
	if vp.GroupTable(1) != "movie__g1" {
		t.Errorf("GroupTable = %s", vp.GroupTable(1))
	}
}

func TestConfigDedupAndLookup(t *testing.T) {
	cfg := &Config{}
	i1 := &Index{Name: "a", Table: "movie", Key: []string{"year"}}
	i2 := &Index{Name: "b", Table: "movie", Key: []string{"year"}} // same identity
	if !cfg.AddIndex(i1) {
		t.Error("first add failed")
	}
	if cfg.AddIndex(i2) {
		t.Error("duplicate index added")
	}
	if len(cfg.Indexes) != 1 {
		t.Errorf("%d indexes after adding one twice, want 1", len(cfg.Indexes))
	}
	v := &View{Name: "v", Outer: "movie", Inner: "actor", OuterCols: []string{"ID"}, InnerCols: []string{"actor"}}
	if !cfg.AddView(v) || cfg.AddView(v) {
		t.Error("view dedup wrong")
	}
	if cfg.View("v") == nil || cfg.View("w") != nil {
		t.Error("View lookup wrong")
	}
	vp := &VPartition{Table: "movie", Groups: [][]string{{"title"}, {"year"}}}
	if !cfg.AddPartition(vp) || cfg.AddPartition(vp) {
		t.Error("partition dedup wrong")
	}
	if cfg.PartitionOf("movie") == nil || cfg.PartitionOf("actor") != nil {
		t.Error("PartitionOf wrong")
	}
	clone := cfg.Clone()
	clone.Indexes = clone.Indexes[:0]
	if len(cfg.Indexes) != 1 {
		t.Error("Clone shares slices")
	}
	s := cfg.String()
	for _, want := range []string{"INDEX", "VIEW", "VPARTITION"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %s: %s", want, s)
		}
	}
}

func TestConfigEstBytes(t *testing.T) {
	prov := stats.MapProvider{"movie": tableStats()}
	cfg := &Config{}
	if cfg.EstBytes(prov) != 0 {
		t.Error("empty config should be 0 bytes")
	}
	cfg.AddIndex(&Index{Table: "movie", Key: []string{"year"}})
	if cfg.EstBytes(prov) <= 0 {
		t.Error("index bytes not counted")
	}
}

// refViewStats is View.Stats as it stood before the view's statistics
// shared its tables' column statistics: every carried column copied.
func refViewStats(v *View, p stats.Provider) *stats.TableStats {
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

// TestViewStatsSharesColumnStats: View.Stats equals the copying version
// value for value, and every carried column is its table's own
// *ColumnStats except the ones whose Distinct it clamps to the view's
// rows, which are copies that leave the table's statistics as they were.
// The fixture clamps outer columns (more distinct movies than actor rows),
// shares the rest, and synthesizes a column its table has no statistics
// for and every column of a table without statistics.
func TestViewStatsSharesColumnStats(t *testing.T) {
	movie := tableStats()
	movie.Cols["year"].NullFrac = 0.1
	movie.Cols["year"].MCVs = []stats.MCV{{Value: rel.Int(1999), Frac: 0.2}}
	actor := &stats.TableStats{Name: "actor", Rows: 4000, RowBytes: 30, Cols: map[string]*stats.ColumnStats{
		"PID":   {Count: 4000, Distinct: 3000, AvgWidth: 8, Typ: rel.TInt},
		"actor": {Count: 3800, Distinct: 2000, AvgWidth: 16, NullFrac: 0.05, Typ: rel.TString},
	}}
	prov := stats.MapProvider{"movie": movie, "actor": actor}
	before := map[string]stats.ColumnStats{}
	for name, ts := range prov {
		for c, cs := range ts.Cols {
			before[name+"."+c] = *cs
		}
	}
	views := []*View{
		{Name: "v1", Outer: "movie", Inner: "actor",
			OuterCols: []string{"ID", "title", "year"}, InnerCols: []string{"PID", "actor", "role"}},
		{Name: "v2", Outer: "studio", Inner: "actor", OuterCols: []string{"ID", "name"}, InnerCols: []string{"actor"}},
	}
	clamped, shared := 0, 0
	for _, v := range views {
		got, want := v.Stats(prov), refViewStats(v, prov)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats %+v, want %+v", v.Name, got, want)
		}
		for _, side := range []struct {
			table string
			cols  []string
		}{{v.Outer, v.OuterCols}, {v.Inner, v.InnerCols}} {
			for _, c := range side.cols {
				vc := got.Cols[side.table+"__"+c]
				var src *stats.ColumnStats
				if ts := prov.TableStats(side.table); ts != nil {
					src = ts.Col(c)
				}
				switch {
				case src == nil:
					if vc == nil {
						t.Errorf("%s: no statistics for %s.%s", v.Name, side.table, c)
					}
				case src.Distinct > got.Rows:
					clamped++
					if vc == src {
						t.Errorf("%s: clamped column %s.%s shares its table's statistics", v.Name, side.table, c)
					}
				default:
					shared++
					if vc != src {
						t.Errorf("%s: column %s.%s is a copy, want its table's statistics", v.Name, side.table, c)
					}
				}
			}
		}
	}
	if clamped == 0 || shared == 0 {
		t.Errorf("%d clamped and %d shared columns: the fixture must have both", clamped, shared)
	}
	for name, ts := range prov {
		for c, cs := range ts.Cols {
			if !reflect.DeepEqual(*cs, before[name+"."+c]) {
				t.Errorf("%s.%s changed: %+v, was %+v", name, c, *cs, before[name+"."+c])
			}
		}
	}
}
