package loadgen_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// Sustained-QPS benchmarks for the service path, guarded by
// scripts/benchguard from the run itself:
//
//	BenchmarkServiceDirect — the same query mix executed serially
//	  through the bare engine (what the work costs with no service, no
//	  admission, one session).
//	BenchmarkServiceQPSW1  — loadgen at benchSessions concurrent sessions through
//	  the service, every query pinned to workers=1.
//	BenchmarkServiceQPSW4  — same load, queries ask for 4 morsel
//	  workers from the shared pool.
//
// Flat names (no sub-benchmarks): benchguard's parser keys on
// unslashed benchmark names. Each QPS benchmark reports qps, p50_ms,
// p99_ms, cpus and sessions; the guard asserts the W4/W1 speedup from
// the run itself when cpus > sessions (a runner with a thread to spare
// for a query's extra workers) and only a dispatch-overhead floor
// otherwise, where the sessions' own queries already occupy every
// thread. All three run on one Built.

const (
	benchMovies = 400
	// benchSessions is the closed-loop concurrency of the QPS benchmarks.
	benchSessions = 4
)

var benchQueries = []string{
	`//movie[year >= 2000]/(title | box_office)`,
	`//movie[genre = "genre-03"]/(title | year | actor)`,
	`//movie/year`,
	`//movie/(title | aka_title)`,
}

func benchFixture(b *testing.B) (*shred.Mapping, *rel.Database, *engine.Built) {
	b.Helper()
	tree := schema.Movie()
	doc := xmlgen.GenerateMovie(tree, xmlgen.MovieOptions{Movies: benchMovies, Seed: 21})
	m, err := shred.Compile(tree)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		b.Fatalf("Shred: %v", err)
	}
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	return m, db, built
}

func benchService(b *testing.B) *service.Service {
	b.Helper()
	m, _, built := benchFixture(b)
	svc := service.New(service.Config{
		PoolWorkers:        3 * 4,
		MaxWorkersPerQuery: 4,
		DefaultQuota:       service.TenantQuota{MaxConcurrent: 16, MaxQueued: 1 << 16},
	})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		b.Fatal(err)
	}
	// Warm plan + structure caches so the steady state is measured.
	for _, qs := range benchQueries {
		if _, err := svc.Query(context.Background(), service.Request{Corpus: "movie", Tenant: "warm", XPath: qs}); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

func benchMix(workers int) []service.Request {
	mix := make([]service.Request, len(benchQueries))
	for i, qs := range benchQueries {
		mix[i] = service.Request{
			Corpus: "movie", Tenant: [2]string{"t0", "t1"}[i%2],
			XPath: qs, Workers: workers,
		}
	}
	return mix
}

func runQPS(b *testing.B, svc *service.Service, workers int) {
	b.Helper()
	b.ResetTimer()
	res := Run(context.Background(), svc.Query, benchMix(workers), Options{
		Concurrency: benchSessions, Ops: b.N,
	})
	b.StopTimer()
	if res.Errors > 0 || res.Rejected > 0 || res.TimedOut > 0 {
		b.Fatalf("load run degraded: %+v", res)
	}
	b.ReportMetric(res.QPS, "qps")
	b.ReportMetric(float64(res.P50.Microseconds())/1e3, "p50_ms")
	b.ReportMetric(float64(res.P99.Microseconds())/1e3, "p99_ms")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	b.ReportMetric(benchSessions, "sessions")
}

func BenchmarkServiceQPSW1(b *testing.B) {
	runQPS(b, benchService(b), 1)
}

func BenchmarkServiceQPSW4(b *testing.B) {
	runQPS(b, benchService(b), 4)
}

func BenchmarkServiceDirect(b *testing.B) {
	m, db, built := benchFixture(b)
	opt := optimizer.New(stats.FromDatabase(db))
	plans := make([]*optimizer.Plan, len(benchQueries))
	for i, qs := range benchQueries {
		sql, err := translate.Translate(m, xpath.MustParse(qs))
		if err != nil {
			b.Fatal(err)
		}
		if plans[i], err = opt.PlanQuery(sql, &physical.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range plans {
		if _, err := engine.Execute(built, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(built, plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}
