package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/storage"
)

// The race battery: N goroutine "sessions" hammer one corpus's shared
// Built (and PagedBuilt) through the service concurrently, at mixed
// worker counts, and every answer must be bit-identical to a direct
// single-threaded engine execution. Run under -race this is the
// shared-cache safety evidence for the whole service path; the cache
// counters afterwards pin the single-flight property — every prepared
// plan, join table, and probe set was built exactly once no matter how
// many sessions raced to first use.

const (
	batterySessions = 8
	batteryRounds   = 6
)

// runBattery drives sessions×rounds over every query against one
// registered corpus and checks each response bit-exactly.
func runBattery(t *testing.T, svc *Service, corpus string, want []*engine.Result) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, batterySessions)
	for s := 0; s < batterySessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			tenant := fmt.Sprintf("tenant-%d", s%3)
			for r := 0; r < batteryRounds; r++ {
				// Mixed worker counts: each session asks for a different
				// parallelism each round; grants vary with pool load and
				// the answers must not.
				workers := 1 + (s+r)%4
				for i, qs := range serviceQueries {
					resp, err := svc.Query(ctx, Request{
						Corpus: corpus, Tenant: tenant, XPath: qs, Workers: workers,
					})
					if err != nil {
						errs <- fmt.Errorf("session %d round %d query %d: %w", s, r, i, err)
						return
					}
					if d := diffResponse(resp, want[i]); d != "" {
						errs <- fmt.Errorf("session %d round %d workers %d %s: %s", s, r, workers, qs, d)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// singleFlightMisses executes each battery query once on a fresh Built
// and returns its cache-miss profile: the exact miss counts a shared
// Built must show after ANY number of concurrent sessions, if and only
// if every structure was built exactly once.
func singleFlightMisses(t *testing.T, svc *Service, corpus string) map[string]int64 {
	t.Helper()
	ctx := context.Background()
	for _, qs := range serviceQueries {
		if _, err := svc.Query(ctx, Request{Corpus: corpus, Tenant: "baseline", XPath: qs}); err != nil {
			t.Fatalf("baseline %s: %v", qs, err)
		}
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	out := map[string]int64{}
	for k, v := range svc.corpora[corpus].built.CacheCounters() {
		if len(k) > 7 && k[len(k)-7:] == ".misses" {
			out[k] = v
		}
	}
	return out
}

func assertSingleFlight(t *testing.T, b *engine.Built, wantMisses map[string]int64) {
	t.Helper()
	got := b.CacheCounters()
	for k, want := range wantMisses {
		if got[k] != want {
			t.Errorf("cache %s = %d after battery, want %d (structure built more than once, single-flight broken); counters %v",
				k, got[k], want, got)
		}
	}
}

func TestSharedBuiltRaceBattery(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)

	// Miss profile of a single serial pass on a private Built: the
	// battery's shared Built must match it exactly.
	_, _, baselineBuilt := movieFixture(t, 200)
	baseSvc := New(Config{})
	if err := baseSvc.RegisterBuilt("movie", baselineBuilt, m, nil); err != nil {
		t.Fatal(err)
	}
	wantMisses := singleFlightMisses(t, baseSvc, "movie")

	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg, PoolWorkers: 4, DefaultQuota: TenantQuota{MaxConcurrent: 8, MaxQueued: 64}})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	runBattery(t, svc, "movie", want)
	assertSingleFlight(t, built, wantMisses)

	// The plan cache is also single-flight: one miss per query text.
	if got := reg.Snapshot()["service.plan.misses"]; got != float64(len(serviceQueries)) {
		t.Errorf("plan misses = %v after %d sessions, want %d",
			got, batterySessions, len(serviceQueries))
	}
}

func TestSharedPagedBuiltRaceBattery(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)

	dir, err := os.MkdirTemp("", "service-paged-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if _, err := storage.Save(dir, built, storage.Options{ChunkRows: 64}); err != nil {
		t.Fatalf("save: %v", err)
	}
	// A budget around a third of the data forces real paging: sessions
	// continuously fault and evict each other's chunks while sharing one
	// CLOCK pager.
	store, err := storage.Open(dir, storage.Options{MemBudgetBytes: db.Bytes() / 3, ChunkRows: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })

	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg, PoolWorkers: 4, DefaultQuota: TenantQuota{MaxConcurrent: 8, MaxQueued: 64}})
	if err := svc.RegisterStore("movie", store, m, true); err != nil {
		t.Fatal(err)
	}
	runBattery(t, svc, "movie", want)

	// Prepared plans are still single-flight on the paged Built. (Join
	// and probe structures too — same counters, same cache.)
	counters := func() map[string]int64 {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.corpora["movie"].built.CacheCounters()
	}()
	if counters["prepared.misses"] != int64(len(serviceQueries)) {
		t.Errorf("prepared.misses = %d, want %d (counters %v)",
			counters["prepared.misses"], len(serviceQueries), counters)
	}
}

// TestResidentStoreCorpusSurvivesAppendAndCompact: a corpus registered
// resident (paged=false) owns its tables, so the store appending to and
// compacting the same data changes nothing the corpus serves — every
// answer stays bit-identical to the registration-time reference instead
// of tripping the engine's mutated-after-Build guard.
func TestResidentStoreCorpusSurvivesAppendAndCompact(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)

	dir := t.TempDir()
	if _, err := storage.Save(dir, built, storage.Options{ChunkRows: 64}); err != nil {
		t.Fatalf("save: %v", err)
	}
	store, err := storage.Open(dir, storage.Options{ChunkRows: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })

	svc := New(Config{PoolWorkers: 2})
	if err := svc.RegisterStore("movie", store, m, false); err != nil {
		t.Fatal(err)
	}
	pass := func(label string) {
		t.Helper()
		for i, qs := range serviceQueries {
			resp, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t0", XPath: qs})
			if err != nil {
				t.Fatalf("%s: %s: %v", label, qs, err)
			}
			requireSameResult(t, label+": "+qs, resp, want[i])
		}
	}
	pass("before append")

	movie := db.Table("movie")
	row := make([]rel.Value, len(movie.Columns))
	movie.ReadRowInto(row, 0)
	if err := store.Append("movie", row); err != nil {
		t.Fatalf("append: %v", err)
	}
	pass("after append")
	if err := store.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	pass("after compact")
}

// TestPagedStoreCorpusSurvivesAppendStalesOnCompact: a corpus registered
// paged (paged=true) reads its chunks from the store, and its view pins
// the rows committed at registration. After an Append it keeps answering
// bit-identically to the registration-time reference; after a Compact,
// which rewrites the segment files under it, every query fails with the
// store's staleness error and none returns rows.
func TestPagedStoreCorpusSurvivesAppendStalesOnCompact(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)

	dir := t.TempDir()
	if _, err := storage.Save(dir, built, storage.Options{ChunkRows: 64}); err != nil {
		t.Fatalf("save: %v", err)
	}
	store, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })

	svc := New(Config{PoolWorkers: 2})
	if err := svc.RegisterStore("movie", store, m, true); err != nil {
		t.Fatal(err)
	}
	query := func(qs string) (*Response, error) {
		return svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t0", XPath: qs})
	}
	pass := func(label string) {
		t.Helper()
		for i, qs := range serviceQueries {
			resp, err := query(qs)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, qs, err)
			}
			requireSameResult(t, label+": "+qs, resp, want[i])
		}
	}
	pass("before append")

	movie := db.Table("movie")
	row := make([]rel.Value, len(movie.Columns))
	movie.ReadRowInto(row, 0)
	if err := store.Append("movie", row); err != nil {
		t.Fatalf("append: %v", err)
	}
	pass("after append")
	if err := store.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for _, qs := range serviceQueries {
		resp, err := query(qs)
		if err == nil {
			t.Fatalf("after compact: %s answered %d rows from a view the compaction staled", qs, len(resp.Rows))
		}
		if !strings.Contains(err.Error(), "stale") || !errors.Is(err, storage.ErrStale) {
			t.Fatalf("after compact: %s: %v, want the staleness error", qs, err)
		}
	}
	// Over HTTP the staled corpus is a server-side condition: 503 with
	// its own kind, which the client maps back to the sentinel.
	rec := httptest.NewRecorder()
	body := appendRequest(nil, Request{Corpus: "movie", Tenant: "t0", XPath: serviceQueries[0]})
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	var we wireError
	if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || rec.Code != http.StatusServiceUnavailable || we.Kind != "stale_corpus" {
		t.Fatalf("after compact: /query answered HTTP %d %q (%v), want 503 kind stale_corpus", rec.Code, rec.Body, err)
	}
	if err := kindErr(we.Kind, we.Error); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("kind stale_corpus maps back to %v, want storage.ErrStale", err)
	}
}

// TestConcurrentPlanMissesShareOptimizer: plan-cache misses for distinct
// query texts plan concurrently on the one Optimizer a corpus owns
// (corpus.plan releases its mutex before planning), so everything the
// planner writes there must be synchronized. Under -race this is the
// regression test for the optimizer's call counter; the count pins that
// no increment is lost.
func TestConcurrentPlanMissesShareOptimizer(t *testing.T) {
	m, _, built := movieFixture(t, 200)
	svc := New(Config{PoolWorkers: 4, DefaultQuota: TenantQuota{MaxConcurrent: 8, MaxQueued: 64}})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	const sessions, texts = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < texts; i++ {
				q := fmt.Sprintf("//movie[year >= %d]/title", 1900+s*texts+i)
				if _, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t", XPath: q}); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	svc.mu.Lock()
	calls := svc.corpora["movie"].opt.Calls()
	svc.mu.Unlock()
	if calls != sessions*texts {
		t.Errorf("optimizer counted %d calls for %d distinct query texts", calls, sessions*texts)
	}
}

// TestClosedStoreCorpusAnswersStoreClosed: a paged corpus whose store
// was closed under it fails every query with storage.ErrClosed in
// process, and over HTTP with 503 kind store_closed — a server-side
// condition, not a malformed request — which the client maps back to
// the sentinel.
func TestClosedStoreCorpusAnswersStoreClosed(t *testing.T) {
	m, _, built := movieFixture(t, 100)
	dir := t.TempDir()
	if _, err := storage.Save(dir, built, storage.Options{ChunkRows: 64}); err != nil {
		t.Fatalf("save: %v", err)
	}
	store, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	svc := New(Config{PoolWorkers: 2})
	if err := svc.RegisterStore("movie", store, m, true); err != nil {
		t.Fatal(err)
	}
	req := Request{Corpus: "movie", Tenant: "t0", XPath: serviceQueries[0]}
	if _, err := svc.Query(context.Background(), req); err != nil {
		t.Fatalf("before close: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, qs := range serviceQueries {
		req.XPath = qs
		if resp, err := svc.Query(context.Background(), req); !errors.Is(err, storage.ErrClosed) {
			t.Fatalf("after close: %s answered %v, %v; want storage.ErrClosed", qs, resp, err)
		}
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(appendRequest(nil, req))))
	var we wireError
	if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || rec.Code != http.StatusServiceUnavailable || we.Kind != "store_closed" {
		t.Fatalf("after close: /query answered HTTP %d %q (%v), want 503 kind store_closed", rec.Code, rec.Body, err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL, nil).Query(context.Background(), req); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("after close: client got %v, want storage.ErrClosed", err)
	}
}
