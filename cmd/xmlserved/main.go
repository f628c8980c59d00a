// Command xmlserved is the long-lived multi-tenant XPath query server:
// it registers named corpora (generated datasets, or a durable store
// directory), shares one engine build — caches, prepared plans, pager —
// across every session, and serves queries over HTTP+JSON under
// admission control (per-tenant quotas, a bounded global worker pool,
// per-request deadlines).
//
//	xmlserved -addr :8080 -corpora movie,dblp -scale 0.25
//	xmlserved -addr :8080 -store /data/movies -store-schema movie -mem-budget 33554432
//	curl -s localhost:8080/query -d '{"corpus":"movie","tenant":"t1","xpath":"//movie/year"}'
//
// Admission state (queue depth, admitted/rejected/timed-out counters,
// per-tenant gauges) is served on -debug-addr via /debug/metrics and
// /debug/vars.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/shred"
	"repro/internal/storage"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "HTTP listen address for the query API")
		debugAddr     = flag.String("debug-addr", "", "serve /debug/vars, /debug/metrics, /debug/pprof on this address")
		corpora       = flag.String("corpora", "movie", "comma-separated generated corpora to register: movie,dblp")
		scale         = flag.Float64("scale", 0.25, "generated dataset scale factor")
		storeDir      = flag.String("store", "", "serve a durable store directory as a corpus instead of generating data")
		storeName     = flag.String("store-name", "store", "corpus name for the -store directory")
		storeSchema   = flag.String("store-schema", "movie", "schema the -store data was shredded under: movie or dblp")
		memBudget     = flag.Int64("mem-budget", 0, "store memory budget in bytes: above 0, -store is served through chunk-granular paged scans under it (0 = unbudgeted, tables assembled)")
		poolWorkers   = flag.Int("pool-workers", 0, "global morsel-worker pool capacity (0 = GOMAXPROCS)")
		maxWorkers    = flag.Int("max-workers", 4, "max workers any one query may be granted")
		defTimeout    = flag.Duration("default-timeout", 0, "default per-request deadline (0 = none)")
		maxConcurrent = flag.Int("max-concurrent", 4, "default tenant quota: concurrent queries")
		maxQueued     = flag.Int("max-queued", 16, "default tenant quota: queued requests before fast-fail")
		memQuota      = flag.Int64("mem-quota", 0, "default tenant quota: in-flight memory bytes (0 = unlimited)")
	)
	flag.Parse()
	if err := run(*addr, *debugAddr, *corpora, *scale, *storeDir, *storeName, *storeSchema,
		*memBudget, *poolWorkers, *maxWorkers, *defTimeout,
		*maxConcurrent, *maxQueued, *memQuota); err != nil {
		fmt.Fprintln(os.Stderr, "xmlserved:", err)
		os.Exit(1)
	}
}

func run(addr, debugAddr, corpora string, scale float64,
	storeDir, storeName, storeSchema string, memBudget int64,
	poolWorkers, maxWorkers int, defTimeout time.Duration,
	maxConcurrent, maxQueued int, memQuota int64) error {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{
		PoolWorkers:        poolWorkers,
		MaxWorkersPerQuery: maxWorkers,
		DefaultTimeout:     defTimeout,
		DefaultQuota:       service.TenantQuota{MaxConcurrent: maxConcurrent, MaxQueued: maxQueued, MemBytes: memQuota},
		Registry:           reg,
	})

	if storeDir != "" {
		tree, err := schemaByName(storeSchema)
		if err != nil {
			return err
		}
		m, err := shred.Compile(tree)
		if err != nil {
			return fmt.Errorf("compile %s schema: %w", storeSchema, err)
		}
		store, err := storage.Open(storeDir, storage.Options{MemBudgetBytes: memBudget, Registry: reg})
		if err != nil {
			return err
		}
		defer store.Close()
		// A budget bounds only what pages: a store is paged exactly when it
		// has one.
		paged := memBudget > 0
		if err := svc.RegisterStore(storeName, store, m, paged); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "registered store corpus %q from %s (paged=%v)\n", storeName, storeDir, paged)
	} else {
		for _, name := range strings.Split(corpora, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if err := registerGenerated(svc, name, scale); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "registered generated corpus %q (scale %.2f)\n", name, scale)
		}
	}

	if debugAddr != "" {
		ds, err := obs.ServeDebug(debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/metrics\n", ds.Addr)
	}
	srv, err := service.Serve(addr, svc)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serving queries on http://%s/query\n", srv.Addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "received %v, shutting down\n", s)
	return svc.Close()
}

func schemaByName(name string) (*schema.Tree, error) {
	switch name {
	case "movie":
		return schema.Movie(), nil
	case "dblp":
		return schema.DBLP(), nil
	}
	return nil, fmt.Errorf("unknown schema %q (want movie or dblp)", name)
}

// registerGenerated shreds a generated dataset and registers it as an
// in-memory corpus.
func registerGenerated(svc *service.Service, name string, scale float64) error {
	var ds *experiments.Dataset
	switch name {
	case "movie":
		ds = experiments.LoadMovie(experiments.Scale(scale))
	case "dblp":
		ds = experiments.LoadDBLP(experiments.Scale(scale))
	default:
		return fmt.Errorf("unknown corpus %q (want movie or dblp)", name)
	}
	m, err := shred.Compile(ds.Tree)
	if err != nil {
		return fmt.Errorf("%s: compile: %w", name, err)
	}
	db, err := shred.Shred(m, ds.Docs[0])
	if err != nil {
		return fmt.Errorf("%s: shred: %w", name, err)
	}
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		return fmt.Errorf("%s: build: %w", name, err)
	}
	return svc.RegisterBuilt(name, built, m, nil)
}
