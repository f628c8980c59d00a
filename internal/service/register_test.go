package service

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/xmlgen"
)

// bitValue renders a value with its float payload as bits, so that a
// NaN matches the same NaN and -0 differs from +0.
func bitValue(v rel.Value) string {
	return fmt.Sprintf("%t/%d/%d/%x/%q", v.Null, v.Typ, v.I, math.Float64bits(v.F), v.S)
}

// providerImage renders every table's statistics in name order, each
// float as its bits and nil slices apart from empty ones: two providers
// are bit-identical when their images are equal.
func providerImage(p stats.MapProvider) string {
	var b strings.Builder
	for _, name := range sortedKeys(p) {
		ts := p[name]
		fmt.Fprintf(&b, "%s %s rows=%d rowbytes=%x\n", name, ts.Name, ts.Rows, math.Float64bits(ts.RowBytes))
		for _, col := range sortedKeys(ts.Cols) {
			cs := ts.Cols[col]
			fmt.Fprintf(&b, "  %s typ=%d count=%d distinct=%d min=%s max=%s width=%x nulls=%x hist=%t",
				col, cs.Typ, cs.Count, cs.Distinct, bitValue(cs.Min), bitValue(cs.Max),
				math.Float64bits(cs.AvgWidth), math.Float64bits(cs.NullFrac), cs.Hist != nil)
			if cs.Hist != nil && cs.Hist.Bounds != nil {
				b.WriteString(" bounds=")
				for _, v := range cs.Hist.Bounds {
					b.WriteString(bitValue(v) + ",")
				}
			}
			if cs.MCVs != nil {
				b.WriteString(" mcvs=")
				for _, m := range cs.MCVs {
					fmt.Fprintf(&b, "%s@%x,", bitValue(m.Value), math.Float64bits(m.Frac))
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registeredProvider is the statistics the named corpus plans with.
func registeredProvider(t *testing.T, svc *Service, name string) stats.MapProvider {
	t.Helper()
	c, err := svc.corpus(name)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c.opt.Provider.(stats.MapProvider)
	if !ok {
		t.Fatalf("corpus %s plans with a %T", name, c.opt.Provider)
	}
	return p
}

// savedMovie saves the Movie fixture as a store of 64-row chunks and
// returns its mapping, database and directory.
func savedMovie(t *testing.T) (*shred.Mapping, *rel.Database, string) {
	t.Helper()
	m, db, built := movieFixture(t, 300)
	dir := t.TempDir()
	if _, err := storage.Save(dir, built, storage.Options{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	return m, db, dir
}

// TestRegisterStoreStatsAtEveryWorkerCount: a store registered paged,
// which collects table by table on up to GOMAXPROCS workers, and
// registered resident, which collects its Built's tables the same way,
// plan with the statistics stats.FromDatabase computes over the
// shredded database at GOMAXPROCS 1, bit for bit, at GOMAXPROCS 1, 2, 3
// and 8.
func TestRegisterStoreStatsAtEveryWorkerCount(t *testing.T) {
	m, db, dir := savedMovie(t)
	st, err := storage.Open(dir, storage.Options{MemBudgetBytes: db.Bytes() / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := providerImage(stats.FromDatabase(db))
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		for _, paged := range []bool{true, false} {
			svc := New(Config{})
			if err := svc.RegisterStore("movie", st, m, paged); err != nil {
				t.Fatalf("GOMAXPROCS %d, paged %t: %v", k, paged, err)
			}
			if got := providerImage(registeredProvider(t, svc, "movie")); got != want {
				t.Fatalf("GOMAXPROCS %d, paged %t: statistics differ\n got %s\nwant %s", k, paged, got, want)
			}
		}
	}
}

// TestRegisterStoreFailsAtLowestCorruptTable: with a chunk of two tables
// corrupted, registering the store paged or resident fails with the
// lower table's error at every GOMAXPROCS, registers nothing, and leaves
// no goroutine behind.
func TestRegisterStoreFailsAtLowestCorruptTable(t *testing.T) {
	m, _, dir := savedMovie(t)
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bad []storage.TableEntry
	for _, e := range st.Manifest().Tables[1:] {
		if e.Rows > 0 && len(bad) < 2 {
			bad = append(bad, e)
		}
	}
	st.Close()
	if len(bad) < 2 {
		t.Fatal("the fixture has fewer than two tables with rows past table 0")
	}
	for _, e := range bad {
		path := filepath.Join(dir, e.File)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xff // a byte of the segment's last chunk
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err = storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantErr := fmt.Sprintf("of %s checksum mismatch", bad[0].Name)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(k)
		for _, paged := range []bool{true, false} {
			svc := New(Config{})
			before := runtime.NumGoroutine()
			err := svc.RegisterStore("movie", st, m, paged)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("GOMAXPROCS %d, paged %t: RegisterStore error %v, want %q", k, paged, err, wantErr)
			}
			if n := len(svc.Corpora()); n != 0 {
				t.Fatalf("GOMAXPROCS %d, paged %t: a failed registration left %d corpora", k, paged, n)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d, paged %t: %d goroutines after RegisterStore, %d before", k, paged, runtime.NumGoroutine(), before)
				}
			}
		}
	}
}

// dblpScale1 is DBLP at the default (scale 1) sizing under hybrid
// inlining, shredded and built once per test binary.
var dblpScale1 = sync.OnceValue(func() struct {
	m     *shred.Mapping
	built *engine.Built
} {
	tree := schema.DBLP()
	m, err := shred.Compile(tree)
	if err != nil {
		panic(err)
	}
	db, err := shred.Shred(m, xmlgen.GenerateDBLP(tree, xmlgen.DefaultDBLPOptions()))
	if err != nil {
		panic(err)
	}
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		panic(err)
	}
	return struct {
		m     *shred.Mapping
		built *engine.Built
	}{m, built}
})

// BenchmarkRegisterStore: registering DBLP scale 1 under hybrid
// inlining from its store, paged under a budget of a quarter of the data
// and resident: assembly and statistics, plus the paged view or the
// resident Built.
func BenchmarkRegisterStore(b *testing.B) {
	c := dblpScale1()
	dir := b.TempDir()
	if _, err := storage.Save(dir, c.built, storage.Options{}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		paged  bool
		budget int64
	}{{"paged", true, c.built.DB.Bytes() / 4}, {"resident", false, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := storage.Open(dir, storage.Options{MemBudgetBytes: bc.budget})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc := New(Config{})
				if err := svc.RegisterStore("dblp", st, c.m, bc.paged); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}
