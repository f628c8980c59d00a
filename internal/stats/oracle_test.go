package stats_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/xmlgen"
)

// refCollector is the collector as it was before it kept typed keys:
// a map from each value's String() to its count, a map from the key to
// the first value seen, and a sort of every distinct key to pick the
// MCVs. It is the oracle the sort-based collector must match bit for
// bit.
type refCollector struct {
	typ      rel.Type
	count    int64
	finite   int64
	widthSum int64
	min, max rel.Value
	counts   map[string]int64
	rep      map[string]rel.Value
	overflow bool
	sample   []rel.Value
	rng      uint64
}

func newRefCollector(t rel.Type) *refCollector {
	return &refCollector{
		typ:    t,
		counts: make(map[string]int64),
		rep:    make(map[string]rel.Value),
		rng:    0x9e3779b97f4a7c15,
	}
}

func (cc *refCollector) Add(v rel.Value) {
	if v.Null {
		return
	}
	cc.count++
	cc.widthSum += int64(v.Width())
	key := v.String()
	if n, ok := cc.counts[key]; ok {
		cc.counts[key] = n + 1
	} else if len(cc.counts) < 100000 {
		cc.counts[key] = 1
		cc.rep[key] = v
	} else {
		cc.overflow = true
	}
	if v.Typ == rel.TFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
		return
	}
	if cc.finite == 0 || v.Compare(cc.min) < 0 {
		cc.min = v
	}
	if cc.finite == 0 || v.Compare(cc.max) > 0 {
		cc.max = v
	}
	cc.finite++
	if len(cc.sample) < 2048 {
		cc.sample = append(cc.sample, v)
		return
	}
	cc.rng ^= cc.rng << 13
	cc.rng ^= cc.rng >> 7
	cc.rng ^= cc.rng << 17
	if idx := cc.rng % uint64(cc.finite); idx < 2048 {
		cc.sample[idx] = v
	}
}

func (cc *refCollector) Stats() *stats.ColumnStats {
	cs := &stats.ColumnStats{
		Count:    cc.count,
		Distinct: int64(len(cc.counts)),
		Min:      cc.min,
		Max:      cc.max,
		Typ:      cc.typ,
	}
	if cc.count > 0 {
		cs.AvgWidth = float64(cc.widthSum) / float64(cc.count)
	}
	if cc.finite == 0 {
		cs.Min, cs.Max = rel.NullOf(cc.typ), rel.NullOf(cc.typ)
	}
	cs.Hist = stats.NewHistogram(cc.sample)
	if !cc.overflow && cc.count > 0 && len(cc.counts) > 0 {
		type kv struct {
			key string
			n   int64
		}
		top := make([]kv, 0, len(cc.counts))
		for k, n := range cc.counts {
			top = append(top, kv{k, n})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].n != top[j].n {
				return top[i].n > top[j].n
			}
			return top[i].key < top[j].key
		})
		uniform := float64(cc.count) / float64(len(cc.counts))
		for i := 0; i < len(top) && i < 8; i++ {
			if float64(top[i].n) < 2*uniform {
				break
			}
			cs.MCVs = append(cs.MCVs, stats.MCV{
				Value: cc.rep[top[i].key],
				Frac:  float64(top[i].n) / float64(cc.count),
			})
		}
	}
	return cs
}

// refFromTable is FromTable as it was: every cell through ValueAt into
// the reference collector.
func refFromTable(t *rel.Table) *stats.TableStats {
	ts := &stats.TableStats{Name: t.Name, Rows: int64(t.RowCount()), Cols: make(map[string]*stats.ColumnStats)}
	if t.RowCount() > 0 {
		ts.RowBytes = float64(t.Bytes())/float64(t.RowCount()) - 8
	}
	for ci, col := range t.Columns {
		cc := newRefCollector(col.Typ)
		nulls := int64(0)
		for r := 0; r < t.RowCount(); r++ {
			v := t.ValueAt(r, ci)
			if v.Null {
				nulls++
				continue
			}
			cc.Add(v)
		}
		cs := cc.Stats()
		if t.RowCount() > 0 {
			cs.NullFrac = float64(nulls) / float64(t.RowCount())
		}
		ts.Cols[col.Name] = cs
	}
	return ts
}

// bitValue is a rel.Value with its float payload as bits, so that
// reflect.DeepEqual sees a NaN equal to the same NaN and -0 apart from
// +0.
type bitValue struct {
	Null bool
	Typ  rel.Type
	I    int64
	F    uint64
	S    string
}

func bitsOf(v rel.Value) bitValue {
	return bitValue{v.Null, v.Typ, v.I, math.Float64bits(v.F), v.S}
}

// bitStats is the image of a ColumnStats that reflect.DeepEqual
// compares bit for bit, nil slices and pointers kept apart from empty
// ones.
type bitStats struct {
	Count, Distinct    int64
	Min, Max           bitValue
	AvgWidth, NullFrac uint64
	HasHist            bool
	Bounds             []bitValue
	MCVs               []bitValue
	Fracs              []uint64
	Typ                rel.Type
}

func bitImage(cs *stats.ColumnStats) bitStats {
	b := bitStats{
		Count: cs.Count, Distinct: cs.Distinct,
		Min: bitsOf(cs.Min), Max: bitsOf(cs.Max),
		AvgWidth: math.Float64bits(cs.AvgWidth), NullFrac: math.Float64bits(cs.NullFrac),
		HasHist: cs.Hist != nil,
		Typ:     cs.Typ,
	}
	if cs.Hist != nil && cs.Hist.Bounds != nil {
		b.Bounds = []bitValue{}
		for _, v := range cs.Hist.Bounds {
			b.Bounds = append(b.Bounds, bitsOf(v))
		}
	}
	if cs.MCVs != nil {
		b.MCVs, b.Fracs = []bitValue{}, []uint64{}
		for _, m := range cs.MCVs {
			b.MCVs = append(b.MCVs, bitsOf(m.Value))
			b.Fracs = append(b.Fracs, math.Float64bits(m.Frac))
		}
	}
	return b
}

func sameColumnStats(t *testing.T, where string, got, want *stats.ColumnStats) {
	t.Helper()
	if g, w := bitImage(got), bitImage(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: statistics differ\n got %+v\nwant %+v", where, g, w)
	}
}

// sameTableStats checks FromTable against refFromTable on one table.
func sameTableStats(t *testing.T, where string, tb *rel.Table) {
	t.Helper()
	got, want := stats.FromTable(tb), refFromTable(tb)
	if got.Name != want.Name || got.Rows != want.Rows ||
		math.Float64bits(got.RowBytes) != math.Float64bits(want.RowBytes) || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s.%s: table statistics differ: %+v vs %+v", where, tb.Name, got, want)
	}
	for name, w := range want.Cols {
		g, ok := got.Cols[name]
		if !ok {
			t.Fatalf("%s.%s: column %s missing", where, tb.Name, name)
		}
		sameColumnStats(t, where+"."+tb.Name+"."+name, g, w)
	}
}

// oracleCorpus is a dataset's schema and one document of it.
type oracleCorpus struct {
	name string
	tree func() *schema.Tree
	doc  *xmlgen.Doc
}

// oracleCorpora are the two datasets at a scale that keeps the oracle
// test in a few seconds.
func oracleCorpora() []oracleCorpus {
	return []oracleCorpus{
		{"dblp", schema.DBLP, xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 400, Books: 60, Seed: 3})},
		{"movie", schema.Movie, xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 300, Seed: 4})},
	}
}

// TestFromTableMatchesReference: over DBLP and Movie, shredded under
// hybrid inlining and under every single transformation, every table's
// statistics are bit-identical to the reference collector's.
func TestFromTableMatchesReference(t *testing.T) {
	tables := 0
	for _, c := range oracleCorpora() {
		base := c.tree()
		trees := []*schema.Tree{base}
		for _, tr := range transform.EnumerateAll(base, xmlgen.CollectStats(base, c.doc)) {
			if next, err := tr.Apply(base); err == nil {
				trees = append(trees, next)
			}
		}
		for i, tree := range trees {
			m, err := shred.Compile(tree)
			if err != nil {
				t.Fatalf("%s mapping %d: %v", c.name, i, err)
			}
			db, err := shred.Shred(m, c.doc)
			if err != nil {
				t.Fatalf("%s mapping %d: shred: %v", c.name, i, err)
			}
			for _, tb := range db.Tables() {
				sameTableStats(t, c.name, tb)
				tables++
			}
		}
	}
	t.Logf("%d tables compared", tables)
}

// TestFromTableMatchesReferenceReopened: the tables a saved and
// reopened store assembles (snapshot-restored dictionaries and vectors)
// give the reference statistics too.
func TestFromTableMatchesReferenceReopened(t *testing.T) {
	c := oracleCorpora()[0]
	m, err := shred.Compile(c.tree())
	if err != nil {
		t.Fatal(err)
	}
	db, err := shred.Shred(m, c.doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Build(db, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := storage.Save(dir, b, storage.Options{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, e := range st.Manifest().Tables {
		tb, err := st.Table(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		sameTableStats(t, "reopened", tb)
	}
}

// edgeTable holds what the typed keys must get right: NaNs of several
// payloads on one key whose MCV value is the first NaN seen, -0 apart
// from +0, ±Inf, the empty string, NULLs, counts tied at 10 and at 9
// whose order falls to String (not to the key order), and a column of
// more than 100 000 distinct values.
func edgeTable() *rel.Table {
	tb := rel.NewTable("edge", []rel.Column{
		{Name: "id", Typ: rel.TInt},
		{Name: "g", Typ: rel.TInt, Nullable: true},
		{Name: "f", Typ: rel.TFloat, Nullable: true},
		{Name: "s", Typ: rel.TString, Nullable: true},
	})
	nanA, nanB := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc)
	var g []int64
	var f []float64
	var s []string
	for i, x := range []int64{7, 10, 100, -1, 25, 3, 1000, 9, 42, 11} {
		for k := 0; k < 10; k++ {
			g = append(g, x)
		}
		for k := 0; k < 9; k++ {
			g = append(g, -200-int64(i))
		}
	}
	for k := 0; k < 10; k++ {
		f = append(f, nanB, math.Copysign(0, -1), 0, math.Inf(1), 2.5, -7.25)
		s = append(s, "", "b", "B", "ä", "a b", "10")
		if k > 0 {
			f = append(f, nanA, math.Inf(-1), 1e300, 1.5)
			s = append(s, "2", "z", "Z", " ")
		}
	}
	for k := 0; k < 200; k++ {
		g = append(g, int64(5000+k))
		f = append(f, float64(k)/7)
		s = append(s, string(rune('a'+k%26))+string(rune('A'+k/26)))
	}
	const rows = 100050
	for r := 0; r < rows; r++ {
		row := []rel.Value{rel.Int(int64(r*7919) % rows), rel.NullOf(rel.TInt), rel.NullOf(rel.TFloat), rel.NullOf(rel.TString)}
		if r < len(g) {
			row[1] = rel.Int(g[r])
		}
		if r < len(f) {
			row[2] = rel.Float(f[r])
		}
		if r < len(s) {
			row[3] = rel.Str(s[r])
		}
		tb.AppendRow(row)
	}
	return tb
}

func TestFromTableMatchesReferenceEdges(t *testing.T) {
	tb := edgeTable()
	sameTableStats(t, "edge", tb)
	ts := stats.FromTable(tb)
	if id := ts.Cols["id"]; id.Distinct != 100000 || id.MCVs != nil {
		t.Errorf("id: Distinct %d, %d MCVs; want the 100 000 cap and none", id.Distinct, len(id.MCVs))
	}
	for _, c := range []string{"g", "f", "s"} {
		if n := len(ts.Cols[c].MCVs); n != 8 {
			t.Errorf("%s: %d MCVs, want 8 (the ties decide which)", c, n)
		}
	}
	nan := ts.Cols["f"].MCVs
	found := false
	for _, m := range nan {
		if math.IsNaN(m.Value.F) {
			found = true
			if math.Float64bits(m.Value.F) != 0xfff0000000000abc || m.Frac != 19.0/float64(ts.Cols["f"].Count) {
				t.Errorf("NaN MCV %x at %g, want the first NaN seen (fff0000000000abc) at 19 of %d", math.Float64bits(m.Value.F), m.Frac, ts.Cols["f"].Count)
			}
		}
	}
	if !found {
		t.Error("the 19 NaNs are not an MCV")
	}
}

// FuzzColumnCollector: a typed value stream (with NULLs) gives the same
// Stats through the collector and through the reference collector.
// Byte 0 picks the type; each value then takes one tag byte and a
// payload from a small domain, so values repeat and MCVs form.
func FuzzColumnCollector(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 1, 0, 3, 1, 1})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 0, 0, 2, 2})
	f.Add([]byte{2, 0, 'a', 1, 'b', 0, 'a', 2, 0, 0, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := rel.Type(data[0] % 3)
		got, want := stats.NewColumnCollector(typ), newRefCollector(typ)
		for i := 1; i+1 < len(data); i += 2 {
			v := fuzzValue(typ, data[i], data[i+1])
			got.Add(v)
			want.Add(v)
		}
		sameColumnStats(t, "fuzz", got.Stats(), want.Stats())
	})
}

// fuzzValue maps a tag and a payload byte to a value of type typ: a
// tag that is a multiple of 5 is NULL; for floats the payload also
// reaches NaNs (their payload set by the tag), ±0 and ±Inf.
func fuzzValue(typ rel.Type, tag, b byte) rel.Value {
	if tag%5 == 0 {
		return rel.NullOf(typ)
	}
	switch typ {
	case rel.TInt:
		return rel.Int(int64(int8(b)) * int64(tag))
	case rel.TFloat:
		switch b % 8 {
		case 0:
			return rel.Float(math.Float64frombits(0x7ff8000000000000 | uint64(tag)))
		case 1:
			return rel.Float(math.Copysign(0, -1))
		case 2:
			return rel.Float(0)
		case 3:
			return rel.Float(math.Inf(int(tag%2)*2 - 1))
		}
		return rel.Float(float64(int8(b)) / float64(tag))
	}
	return rel.Str(string([]byte{b % 7, b})[:1+int(tag%2)])
}

// TestFromTablePanicsOnVirtualShell: a non-empty virtual shell has no
// vectors to read, and FromTable says so rather than returning the
// statistics of an empty table.
func TestFromTablePanicsOnVirtualShell(t *testing.T) {
	cols := []rel.Column{{Name: "id", Typ: rel.TInt}}
	shell := rel.NewVirtualTable("shell", "", cols, 3, 24, func() (*rel.Table, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("FromTable over a virtual shell did not panic")
		}
	}()
	stats.FromTable(shell)
}
