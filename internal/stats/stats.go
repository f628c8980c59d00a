// Package stats implements the statistics layer of Section 4.1: value
// distributions, presence counts, and set-valued cardinality histograms
// collected once at the finest granularity (the fully split schema /
// the documents themselves, which carry identical information), plus
// the derived per-table statistics any enumerated mapping needs for
// what-if costing. It also computes exact statistics from loaded
// relational data, used when planning real execution.
package stats

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/sqlast"
)

// histBuckets is the number of equi-depth histogram buckets.
const histBuckets = 32

// sampleCap is the reservoir size per column during collection.
const sampleCap = 2048

// Histogram is an equi-depth histogram over a sorted sample.
type Histogram struct {
	// Bounds are ascending bucket upper bounds; each bucket holds an
	// equal fraction of the sampled values.
	Bounds []rel.Value
}

// NewHistogram builds an equi-depth histogram from a value sample.
func NewHistogram(sample []rel.Value) *Histogram {
	if len(sample) == 0 {
		return &Histogram{}
	}
	vals := append([]rel.Value(nil), sample...)
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	nb := histBuckets
	if len(vals) < nb {
		nb = len(vals)
	}
	h := &Histogram{Bounds: make([]rel.Value, nb)}
	for i := 0; i < nb; i++ {
		h.Bounds[i] = vals[(i+1)*len(vals)/nb-1]
	}
	return h
}

// FracLE estimates the fraction of values <= v.
func (h *Histogram) FracLE(v rel.Value) float64 {
	if len(h.Bounds) == 0 {
		return 0.5
	}
	i := sort.Search(len(h.Bounds), func(i int) bool { return h.Bounds[i].Compare(v) >= 0 })
	return float64(i+1) / float64(len(h.Bounds)+1)
}

// mcvCount is the number of most-common values tracked per column.
const mcvCount = 8

// MCV is one most-common-value entry.
type MCV struct {
	// Value is the frequent value.
	Value rel.Value
	// Frac is its fraction among non-NULL values.
	Frac float64
}

// ColumnStats describes the value distribution of one column or leaf
// element.
type ColumnStats struct {
	// Count is the number of non-NULL values.
	Count int64
	// Distinct is the (possibly estimated) distinct value count.
	Distinct int64
	// Min and Max bound the non-NULL values.
	Min, Max rel.Value
	// AvgWidth is the average byte width of non-NULL values.
	AvgWidth float64
	// NullFrac is the fraction of NULLs among the rows of the hosting
	// table (0 when used as raw leaf stats).
	NullFrac float64
	// Hist approximates the value distribution.
	Hist *Histogram
	// MCVs lists the most common values and their frequencies, so
	// equality selectivity on skewed columns (the Zipf conference
	// distribution) is estimated from frequency rather than
	// 1/distinct.
	MCVs []MCV
	// Typ is the value type.
	Typ rel.Type
}

// Selectivity estimates the fraction of non-NULL values satisfying
// "value op v".
func (c *ColumnStats) Selectivity(op sqlast.CmpOp, v rel.Value) float64 {
	if c.Count == 0 {
		return 0
	}
	eq := c.eqSelectivity(v)
	var s float64
	switch op {
	case sqlast.OpEq:
		s = eq
	case sqlast.OpNe:
		s = 1 - eq
	case sqlast.OpLe:
		s = c.fracLE(v)
	case sqlast.OpLt:
		s = c.fracLE(v) - eq
	case sqlast.OpGt:
		s = 1 - c.fracLE(v)
	case sqlast.OpGe:
		s = 1 - c.fracLE(v) + eq
	}
	return clamp01(s)
}

// eqSelectivity estimates P(value = v): the tracked frequency for a
// most-common value, otherwise the residual mass spread over the
// remaining distinct values.
func (c *ColumnStats) eqSelectivity(v rel.Value) float64 {
	var mcvMass float64
	for _, m := range c.MCVs {
		if m.Value.Equal(v) {
			return m.Frac
		}
		mcvMass += m.Frac
	}
	rest := float64(c.Distinct) - float64(len(c.MCVs))
	if rest < 1 {
		rest = 1
	}
	s := (1 - mcvMass) / rest
	if s < 0 {
		s = 0
	}
	return s
}

func (c *ColumnStats) fracLE(v rel.Value) float64 {
	if c.Count > 0 && !c.Min.Null {
		if v.Compare(c.Min) < 0 {
			return 0
		}
		if v.Compare(c.Max) >= 0 {
			return 1
		}
	}
	if c.Hist != nil {
		return c.Hist.FracLE(v)
	}
	return 0.33
}

// Scale returns a copy with Count scaled by f (for partitions); the
// distinct count is capped at the new cardinality.
func (c *ColumnStats) Scale(f float64) *ColumnStats {
	out := *c
	out.Count = int64(float64(c.Count) * f)
	if out.Distinct > out.Count {
		out.Distinct = out.Count
	}
	return &out
}

func clamp01(f float64) float64 {
	if !(f >= 0) { // catches NaN along with negatives
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// maxDistinct caps the distinct count a collector reports; a column
// with more distinct values gets no MCVs, since its counts are not
// taken as exact.
const maxDistinct = 100000

// ColumnCollector accumulates ColumnStats from a stream of values of
// one type using a deterministic reservoir sample and exact value
// counts. A string costs a dictionary code and one count per value: Add
// interns it into the collector's own rel.Dict, and a table's column is
// counted by the codes it already holds. An int or a float keeps its
// key — the value, or its bits with every NaN on one key — and Stats
// sorts the keys and counts their runs.
type ColumnCollector struct {
	typ      rel.Type
	count    int64
	finite   int64 // values eligible for min/max and the sample
	widthSum int64
	min, max rel.Value
	nums     []int64   // TInt values, TFloat bits
	dict     *rel.Dict // TString: the strings counted, one code each
	counts   []int64   // TString: occurrences per code of dict
	nan      rel.Value // the first NaN seen: the NaN key's MCV value
	sample   []rel.Value
	rng      uint64
}

// nanKey is the one key every NaN payload counts under, as all NaNs
// render as "NaN".
var nanKey = int64(math.Float64bits(math.NaN()))

// NewColumnCollector creates a collector for values of type t.
func NewColumnCollector(t rel.Type) *ColumnCollector {
	cc := &ColumnCollector{typ: t, rng: 0x9e3779b97f4a7c15}
	if t == rel.TString {
		cc.dict = new(rel.Dict)
	}
	return cc
}

// Add accumulates one value, which is NULL or of the collector's type
// (a value of another type panics). Non-finite floats (NaN, ±Inf)
// are counted and tracked for distinct/MCV purposes but excluded from
// min/max and the histogram sample: range selectivity over [NaN, +Inf]
// bounds would swallow every predicate, and the estimator's arithmetic
// must stay finite.
func (cc *ColumnCollector) Add(v rel.Value) {
	if v.Null {
		return
	}
	if v.Typ != cc.typ {
		panic(fmt.Sprintf("stats: %s value added to a %s collector", v.Typ, cc.typ))
	}
	cc.count++
	if v.Typ == rel.TString {
		c := cc.dict.Intern(v.S)
		if int(c) == len(cc.counts) {
			cc.counts = append(cc.counts, 0)
		}
		cc.counts[c]++
		if i := cc.slot(); i >= 0 {
			cc.sample[i] = v
		}
		return
	}
	cc.widthSum += int64(v.Width())
	switch {
	case v.Typ == rel.TInt:
		cc.nums = append(cc.nums, v.I)
	case math.IsNaN(v.F):
		if !math.IsNaN(cc.nan.F) {
			cc.nan = v
		}
		cc.nums = append(cc.nums, nanKey)
		return
	default:
		cc.nums = append(cc.nums, int64(math.Float64bits(v.F)))
		if math.IsInf(v.F, 0) {
			return
		}
	}
	if cc.finite == 0 || v.Compare(cc.min) < 0 {
		cc.min = v
	}
	if cc.finite == 0 || v.Compare(cc.max) > 0 {
		cc.max = v
	}
	if i := cc.slot(); i >= 0 {
		cc.sample[i] = v
	}
}

// slot advances the deterministic xorshift reservoir by one finite
// value and returns the sample index the value goes to, or -1 when it
// is not sampled.
func (cc *ColumnCollector) slot() int {
	cc.finite++
	if len(cc.sample) < sampleCap {
		cc.sample = append(cc.sample, rel.Value{})
		return len(cc.sample) - 1
	}
	cc.rng ^= cc.rng << 13
	cc.rng ^= cc.rng >> 7
	cc.rng ^= cc.rng << 17
	if idx := cc.rng % uint64(cc.finite); idx < uint64(sampleCap) {
		return int(idx)
	}
	return -1
}

// Stats finalizes the collected statistics.
func (cc *ColumnCollector) Stats() *ColumnStats {
	cs := &ColumnStats{Count: cc.count, Typ: cc.typ}
	switch cc.typ {
	case rel.TString:
		cs.Distinct, cs.MCVs = cc.countCodes()
	case rel.TInt:
		cs.Distinct, cs.MCVs = countRuns(cc.nums, cc.count, rel.Int)
	default:
		cs.Distinct, cs.MCVs = countRuns(cc.nums, cc.count, func(k int64) rel.Value {
			if k == nanKey {
				return cc.nan
			}
			return rel.Float(math.Float64frombits(uint64(k)))
		})
	}
	cs.Min, cs.Max = cc.min, cc.max
	if cc.count > 0 {
		cs.AvgWidth = float64(cc.widthSum) / float64(cc.count)
	}
	if cc.finite == 0 {
		cs.Min, cs.Max = rel.NullOf(cc.typ), rel.NullOf(cc.typ)
	}
	cs.Hist = NewHistogram(cc.sample)
	return cs
}

// countCodes finalizes a string column from its count per dictionary
// code: the width sum and the bounds over the entries in use, and the
// distinct count and the most-common values as countRuns gives them.
func (cc *ColumnCollector) countCodes() (int64, []MCV) {
	strs := cc.dict.Strs()
	used := 0
	cc.widthSum = 0
	for c, n := range cc.counts {
		if n == 0 {
			continue
		}
		v := rel.Str(strs[c])
		cc.widthSum += n * int64(v.Width())
		if used == 0 || v.S < cc.min.S {
			cc.min = v
		}
		if used == 0 || v.S > cc.max.S {
			cc.max = v
		}
		used++
	}
	if used > maxDistinct {
		return maxDistinct, nil
	}
	var top []heavy
	uniform := float64(cc.count) / float64(used)
	for c, n := range cc.counts {
		if n > 0 && float64(n) >= 2*uniform {
			top = append(top, heavy{n, rel.Str(strs[c]), strs[c]})
		}
	}
	return int64(used), mostCommon(top, cc.count)
}

// countRuns sorts keys and counts their runs of equal keys, returning
// the distinct count (capped at maxDistinct) and the most-common
// values.
func countRuns(keys []int64, count int64, value func(int64) rel.Value) (int64, []MCV) {
	slices.Sort(keys)
	runs := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			runs++
		}
	}
	if runs > maxDistinct {
		return maxDistinct, nil
	}
	var top []heavy
	uniform := float64(count) / float64(runs)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		if n := int64(j - i); float64(n) >= 2*uniform {
			v := value(keys[i])
			top = append(top, heavy{n, v, v.String()})
		}
		i = j
	}
	return int64(runs), mostCommon(top, count)
}

// heavy is a value counted n times, at least twice the uniform share.
type heavy struct {
	n   int64
	v   rel.Value
	str string // v.String(), the tie-break
}

// mostCommon turns a column's heavy values into its MCVs. Those are
// only meaningful when the counts are exact and the value is genuinely
// frequent (above twice the uniform share); at most mcvCount of them are
// kept, by count descending, then by String.
func mostCommon(top []heavy, count int64) []MCV {
	sort.Slice(top, func(i, j int) bool {
		if top[i].n != top[j].n {
			return top[i].n > top[j].n
		}
		return top[i].str < top[j].str
	})
	var mcvs []MCV
	for i := 0; i < len(top) && i < mcvCount; i++ {
		mcvs = append(mcvs, MCV{Value: top[i].v, Frac: float64(top[i].n) / float64(count)})
	}
	return mcvs
}

// CardHist is a cardinality histogram for a set-valued element: how
// many parent instances have exactly c occurrences.
type CardHist struct {
	// CountByCard maps occurrence count -> number of parents.
	CountByCard map[int]int64
	// Parents is the total number of parent instances observed.
	Parents int64
	// Total is the total number of occurrences.
	Total int64
}

// NewCardHist creates an empty cardinality histogram.
func NewCardHist() *CardHist {
	return &CardHist{CountByCard: make(map[int]int64)}
}

// Add records one parent instance with c occurrences.
func (h *CardHist) Add(c int) {
	h.CountByCard[c]++
	h.Parents++
	h.Total += int64(c)
}

// Max returns the maximum observed cardinality.
func (h *CardHist) Max() int {
	max := 0
	for c := range h.CountByCard {
		if c > max {
			max = c
		}
	}
	return max
}

// FracAtMost returns the fraction of parents with cardinality <= k.
func (h *CardHist) FracAtMost(k int) float64 {
	if h.Parents == 0 {
		return 1
	}
	var n int64
	for c, cnt := range h.CountByCard {
		if c <= k {
			n += cnt
		}
	}
	return float64(n) / float64(h.Parents)
}

// FracWithAtLeast returns the fraction of parents with cardinality >= i
// (the non-NULL fraction of split column v_i).
func (h *CardHist) FracWithAtLeast(i int) float64 {
	if h.Parents == 0 {
		return 0
	}
	var n int64
	for c, cnt := range h.CountByCard {
		if c >= i {
			n += cnt
		}
	}
	return float64(n) / float64(h.Parents)
}

// OverflowCount returns the number of occurrences beyond the first k
// per parent: the row count of the overflow relation under repetition
// split with count k.
func (h *CardHist) OverflowCount(k int) int64 {
	var n int64
	for c, cnt := range h.CountByCard {
		if c > k {
			n += int64(c-k) * cnt
		}
	}
	return n
}

// SplitCount chooses the repetition-split count per Section 4.6: the
// smallest k <= cmax such that at least frac of parents have
// cardinality <= k, or 0 if no such k exists (distribution not skewed
// to the low-cardinality region).
func (h *CardHist) SplitCount(cmax int, frac float64) int {
	for k := 1; k <= cmax; k++ {
		if h.FracAtMost(k) >= frac {
			return k
		}
	}
	return 0
}

// Collection is the statistics gathered once per dataset at the finest
// granularity, keyed by schema node ID (stable across all mappings).
type Collection struct {
	// Count is the number of instances per element node.
	Count map[int]int64
	// Card is the per-parent cardinality histogram per set-valued
	// element node.
	Card map[int]*CardHist
	// Cols is the value distribution per leaf element node.
	Cols map[int]*ColumnStats
	// DocBytes approximates the serialized document size.
	DocBytes int64
}

// NewCollection creates an empty statistics collection.
func NewCollection() *Collection {
	return &Collection{
		Count: make(map[int]int64),
		Card:  make(map[int]*CardHist),
		Cols:  make(map[int]*ColumnStats),
	}
}

// InstanceCount returns the instance count for a node ID.
func (c *Collection) InstanceCount(id int) int64 { return c.Count[id] }

// Presence returns the fraction of parent instances that contain the
// given child element node at least once.
func (c *Collection) Presence(childID, parentID int) float64 {
	p := c.Count[parentID]
	if p == 0 {
		return 0
	}
	if h, ok := c.Card[childID]; ok {
		return h.FracWithAtLeast(1) * float64(h.Parents) / float64(p)
	}
	f := float64(c.Count[childID]) / float64(p)
	if f > 1 {
		f = 1
	}
	return f
}

// TableStats is what the optimizer consumes: per-relation cardinality,
// width, and per-column distributions.
type TableStats struct {
	Name     string
	Rows     int64
	RowBytes float64
	Cols     map[string]*ColumnStats
}

// Pages returns the table's size in pages under the accounting model.
func (t *TableStats) Pages() int64 {
	b := int64(t.RowBytes*float64(t.Rows)) + 8*t.Rows
	p := (b + rel.PageSize - 1) / rel.PageSize
	if p < 1 {
		p = 1
	}
	return p
}

// Bytes returns the accounted byte size.
func (t *TableStats) Bytes() int64 { return int64(t.RowBytes*float64(t.Rows)) + 8*t.Rows }

// Col returns stats for the named column, or nil.
func (t *TableStats) Col(name string) *ColumnStats { return t.Cols[name] }

// Provider supplies per-table statistics to the optimizer.
type Provider interface {
	// TableStats returns statistics for the named table, or nil if the
	// table is unknown.
	TableStats(name string) *TableStats
}

// MapProvider is a Provider over a map.
type MapProvider map[string]*TableStats

// TableStats implements Provider.
func (m MapProvider) TableStats(name string) *TableStats { return m[name] }

// FromDatabase computes exact TableStats from loaded relational data;
// used when planning execution over real tables. It is FromTables over
// the database's tables, and raises a FromTable panic on its caller.
func FromDatabase(db *rel.Database) MapProvider {
	tables := db.Tables()
	out, _ := FromTables(len(tables), func(i int) (*rel.Table, error) { return tables[i], nil })
	return out
}

// FromTables computes the exact TableStats of n tables, table i as
// table(i) supplies it, on up to GOMAXPROCS workers (par.Do): a worker
// asks for one table, collects it and lets it go before it asks for the
// next, so a caller that assembles each table (a paged store corpus)
// holds one per worker, never a copy of the corpus. It fails with the
// error of the lowest-numbered table that fails, as a sequential loop
// would, and raises a panic on its caller.
func FromTables(n int, table func(i int) (*rel.Table, error)) (MapProvider, error) {
	ts := make([]*TableStats, n)
	if err := par.Do(n, runtime.GOMAXPROCS(0), func(i int) error {
		t, err := table(i)
		if err != nil {
			return err
		}
		ts[i] = FromTable(t)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make(MapProvider, n)
	for _, t := range ts {
		out[t.Name] = t
	}
	return out, nil
}

// FromTable computes one table's exact TableStats from its column
// vectors. It only reads the table, so FromTables collects tables side
// by side. Like ValueAt, it panics on a non-empty virtual shell or
// absent column.
func FromTable(t *rel.Table) *TableStats {
	n := t.RowCount()
	ts := &TableStats{Name: t.Name, Rows: int64(n), Cols: make(map[string]*ColumnStats)}
	if n > 0 {
		ts.RowBytes = float64(t.Bytes())/float64(n) - 8
	}
	for ci, col := range t.Columns {
		cc := NewColumnCollector(col.Typ)
		nulls := 0
		if n > 0 {
			nulls = cc.addColumn(t, ci)
		}
		cs := cc.Stats()
		if n > 0 {
			cs.NullFrac = float64(nulls) / float64(n)
		}
		ts.Cols[col.Name] = cs
	}
	return ts
}

// addColumn adds every non-NULL cell of column ci, read off its typed
// vector, to a fresh collector and returns the column's NULL count.
func (cc *ColumnCollector) addColumn(t *rel.Table, ci int) int {
	var nulls *rel.Bitmap
	ok := false
	valid := func(r int) bool { return !nulls.Any() || !nulls.Get(r) }
	switch cc.typ {
	case rel.TInt:
		var vals []int64
		if vals, nulls, ok = t.IntCol(ci); ok {
			cc.nums = make([]int64, 0, len(vals)-nulls.SetCount())
			for r, x := range vals {
				if valid(r) {
					cc.Add(rel.Int(x))
				}
			}
		}
	case rel.TFloat:
		var vals []float64
		if vals, nulls, ok = t.FloatCol(ci); ok {
			cc.nums = make([]int64, 0, len(vals)-nulls.SetCount())
			for r, x := range vals {
				if valid(r) {
					cc.Add(rel.Float(x))
				}
			}
		}
	default:
		var codes []uint32
		var dict *rel.Dict
		if codes, dict, nulls, ok = t.StrCol(ci); ok {
			// The column's own dictionary: the collector only reads it,
			// as nothing is added to it after addColumn.
			cc.dict, cc.counts = dict, make([]int64, dict.Len())
			strs := dict.Strs()
			for r, c := range codes {
				if valid(r) {
					cc.count++
					cc.counts[c]++
					if i := cc.slot(); i >= 0 {
						cc.sample[i] = rel.Str(strs[c])
					}
				}
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("stats: column %s.%s is not resident", t.Name, t.Columns[ci].Name))
	}
	return nulls.SetCount()
}

// String summarizes a collection for diagnostics.
func (c *Collection) String() string {
	return fmt.Sprintf("stats.Collection{nodes=%d, leaves=%d, setValued=%d, docBytes=%d}",
		len(c.Count), len(c.Cols), len(c.Card), c.DocBytes)
}
