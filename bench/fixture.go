package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	root    string // repository root
	tmp     string // scratch directory for stores, inside the checkout
	out     string // results and traces
}

// scale returns the DBLP scale factor: full is the size the workload
// was designed for, quick the size the smoke test can afford.
func (c *config) scale(full float64) float64 {
	if c.quick {
		return 0.1
	}
	return full
}

// shapeSeed fixes the query shapes (context element, predicate leaf,
// selectivity draw, projection list). Letting them follow -seed moves
// the work per query by 20-37 % from seed to seed (see the README),
// which no bound could absorb, so the shapes stay put and -seed moves
// the data, the predicate constants taken from the data's histograms,
// and the request order.
const shapeSeed = 7

// clock times consecutive steps.
type clock struct{ last time.Time }

func startClock() *clock { return &clock{last: time.Now()} }

// lap returns the milliseconds since the previous lap.
func (c *clock) lap() float64 {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return float64(d.Nanoseconds()) / 1e6
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// corpus is one generated DBLP document with its statistics.
type corpus struct {
	tree *schema.Tree
	doc  *xmlgen.Doc
	col  *stats.Collection
}

func generateCorpus(tree *schema.Tree, scale float64, seed int64) *corpus {
	opts := xmlgen.DefaultDBLPOptions()
	opts.Inproceedings = int(float64(opts.Inproceedings) * scale)
	opts.Books = int(float64(opts.Books) * scale)
	opts.Seed = seed
	return &corpus{tree: tree, doc: xmlgen.GenerateDBLP(tree, opts)}
}

func (c *corpus) collect() { c.col = xmlgen.CollectStats(c.tree, c.doc) }

// query is one distinct request of a mix together with what the
// reference executor answered for it.
type query struct {
	text string
	xp   *xpath.Query
	rows int
	hash uint64
}

// generateQueries draws workload class `class` of StandardParams
// (0 LP-HS, 1 LP-LS, 2 HP-HS, 3 HP-LS) with n queries.
func generateQueries(c *corpus, class, n int) (*workload.Workload, []query, error) {
	p := workload.StandardParams(n, shapeSeed)[class]
	w, err := workload.Generate(c.tree, c.col, p)
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s: %w", p.Name, err)
	}
	seen := make(map[string]bool)
	var qs []query
	for _, wq := range w.Queries {
		text := wq.XPath.String()
		if seen[text] {
			continue
		}
		seen[text] = true
		qs = append(qs, query{text: text, xp: wq.XPath})
	}
	return w, qs, nil
}

// design is the logical and physical design a corpus is stored under.
type design struct {
	mapping *shred.Mapping
	cfg     *physical.Config
}

// loaded is a corpus shredded and built in memory under a design.
type loaded struct {
	db      *rel.Database
	built   *engine.Built
	rows    int
	shredMS float64
	buildMS float64
}

func load(d design, doc *xmlgen.Doc) (*loaded, error) {
	ck := startClock()
	db, err := shred.Shred(d.mapping, doc)
	if err != nil {
		return nil, fmt.Errorf("shred: %w", err)
	}
	shredMS := ck.lap()
	built, err := engine.Build(db, d.cfg)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	l := &loaded{db: db, built: built, shredMS: shredMS, buildMS: ck.lap()}
	for _, t := range db.Tables() {
		l.rows += t.RowCount()
	}
	return l, nil
}

// answer fills in the oracle for every query: it fails fast, naming the
// query, when one does not translate or plan under the design, and runs
// each through engine.ExecuteReference on the resident Built. It
// returns the plans so that the traced run can reuse them.
func answer(qs []query, d design, l *loaded) ([]*optimizer.Plan, error) {
	opt := optimizer.New(stats.FromDatabase(l.db))
	plans := make([]*optimizer.Plan, len(qs))
	for i := range qs {
		sql, err := translate.Translate(d.mapping, qs[i].xp)
		if err != nil {
			return nil, fmt.Errorf("query %q does not translate under the workload's mapping: %w", qs[i].text, err)
		}
		plan, err := opt.PlanQuery(sql, d.cfg)
		if err != nil {
			return nil, fmt.Errorf("query %q does not plan: %w", qs[i].text, err)
		}
		ref, err := engine.ExecuteReference(l.built, plan)
		if err != nil {
			return nil, fmt.Errorf("query %q fails in the reference executor: %w", qs[i].text, err)
		}
		plans[i] = plan
		qs[i].rows = len(ref.Rows)
		qs[i].hash = hashRows(ref.Rows)
	}
	return plans, nil
}

// hashRows is an order-insensitive hash of a result: the wrapping sum
// of a 64-bit FNV hash of every row's values.
func hashRows(rows [][]rel.Value) uint64 {
	var total uint64
	var buf [9]byte
	for _, row := range rows {
		h := fnv.New64a()
		for _, v := range row {
			buf[0] = byte(v.Typ)<<1 | byte(b2i(v.Null))
			switch {
			case v.Null:
				h.Write(buf[:1])
			case v.Typ == rel.TInt:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
				h.Write(buf[:])
			case v.Typ == rel.TFloat:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
				h.Write(buf[:])
			default:
				binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
				h.Write(buf[:])
				h.Write([]byte(v.S))
			}
		}
		total += h.Sum64()
	}
	return total
}

// orders returns one seeded permutation of 0..n-1 per client, so each
// client walks the mix in its own order and a pass covers every query.
func orders(n, clients int, seed int64) [][]int {
	r := rand.New(rand.NewSource(seed))
	out := make([][]int, clients)
	for c := range out {
		out[c] = r.Perm(n)
	}
	return out
}

// scratch creates a fresh directory under the run's scratch space.
func (c *config) scratch(name string) (string, error) {
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.tmp, name+"-")
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func fileSize(dir, name string) int64 {
	info, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return info.Size()
}
