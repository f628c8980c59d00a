package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// serviceQueries is the mixed workload the battery runs: heap scans,
// a hash/INL join (actor), and multi-branch unions, so the shared
// caches actually hold join tables and several prepared plans.
var serviceQueries = []string{
	`//movie[year >= 2000]/(title | box_office)`,
	`//movie[genre = "genre-03"]/(title | year | actor)`,
	`//movie/year`,
	`//movie/(title | aka_title)`,
	`//movie[actor = "Bob Author-00017"]/title`,
}

// movieFixture shreds a seeded movie corpus and returns the pieces a
// test needs to register it and to compute reference answers.
func movieFixture(t testing.TB, movies int) (*shred.Mapping, *rel.Database, *engine.Built) {
	t.Helper()
	tree := schema.Movie()
	doc := xmlgen.GenerateMovie(tree, xmlgen.MovieOptions{Movies: movies, Seed: 21})
	m, err := shred.Compile(tree)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, db, built
}

// refResults executes every query directly through the engine on its
// own private Built — the ground truth the service answers must be
// bit-identical to.
func refResults(t testing.TB, m *shred.Mapping, db *rel.Database, queries []string) []*engine.Result {
	t.Helper()
	built, err := engine.Build(db, &physical.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opt := optimizer.New(stats.FromDatabase(db))
	out := make([]*engine.Result, len(queries))
	for i, qs := range queries {
		sql, err := translate.Translate(m, xpath.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: translate: %v", qs, err)
		}
		plan, err := opt.PlanQuery(sql, &physical.Config{})
		if err != nil {
			t.Fatalf("%s: plan: %v", qs, err)
		}
		out[i], err = engine.Execute(built, plan)
		if err != nil {
			t.Fatalf("%s: execute: %v", qs, err)
		}
	}
	return out
}

// diffResponse compares a service response against a direct engine
// result for bit-identity: columns, row order, every value (BitEqual
// so NaN matches NaN), and stats. Empty string means identical.
func diffResponse(got *Response, want *engine.Result) string {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("%d cols, want %d", len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			return fmt.Sprintf("col %d = %q, want %q", i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Sprintf("row %d has %d values, want %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if !got.Rows[i][j].BitEqual(want.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d = %v, want %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	if got.Stats != want.Stats {
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	return ""
}

// requireSameResult is diffResponse as a fatal test assertion.
func requireSameResult(t testing.TB, label string, got *Response, want *engine.Result) {
	t.Helper()
	if d := diffResponse(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

func TestServiceQueryBasic(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg, PoolWorkers: 2})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for i, qs := range serviceQueries {
			resp, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t0", XPath: qs})
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			requireSameResult(t, qs, resp, want[i])
		}
	}
	// The plan cache translated each text once; round two was all hits.
	snap := reg.Snapshot()
	if got := snap["service.plan.misses"]; got != float64(len(serviceQueries)) {
		t.Errorf("plan misses = %v, want %d", got, len(serviceQueries))
	}
	if got := snap["service.plan.hits"]; got != float64(len(serviceQueries)) {
		t.Errorf("plan hits = %v, want %d", got, len(serviceQueries))
	}
	if got := snap["service.completed"]; got != float64(2*len(serviceQueries)) {
		t.Errorf("completed = %v, want %d", got, 2*len(serviceQueries))
	}
}

func TestServiceErrors(t *testing.T) {
	m, _, built := movieFixture(t, 50)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, Request{Corpus: "nope", Tenant: "t", XPath: "//movie/year"}); !errors.Is(err, ErrUnknownCorpus) {
		t.Errorf("unknown corpus: got %v", err)
	}
	// A parse error is cached, answered identically on retry, and never
	// consumes tenant quota.
	for i := 0; i < 2; i++ {
		if _, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: "//movie["}); err == nil {
			t.Fatalf("attempt %d: bad query succeeded", i)
		}
	}
	if inflight, _, ok := svc.TenantPeaks("t"); ok && inflight != 0 {
		t.Errorf("plan errors consumed quota: peak inflight %d", inflight)
	}
	if err := svc.RegisterBuilt("movie", built, m, nil); err == nil {
		t.Error("duplicate register succeeded")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(ctx, Request{Corpus: "movie", Tenant: "t", XPath: "//movie/year"}); !errors.Is(err, ErrClosed) {
		t.Errorf("after Close: got %v", err)
	}
}

func TestDeadlineErrorTaxonomy(t *testing.T) {
	err := wrapDeadline("queued", context.DeadlineExceeded)
	if !errors.Is(err, ErrDeadline) {
		t.Error("DeadlineError does not match ErrDeadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("DeadlineError does not match the wrapped context error")
	}
	var de *DeadlineError
	if !errors.As(err, &de) || de.Phase != "queued" {
		t.Errorf("phase not preserved: %v", err)
	}
}

// panicSource serves a table as one chunk whose every fetch panics.
type panicSource struct{ t *rel.Table }

func (s panicSource) Columns() []rel.Column    { return s.t.Columns }
func (s panicSource) RowCount() int            { return s.t.RowCount() }
func (s panicSource) NumChunks() int           { return 1 }
func (s panicSource) ChunkSpan(int) (int, int) { return 0, s.t.RowCount() }
func (s panicSource) Chunk(k int) (*rel.Table, func(), error) {
	panic(fmt.Sprintf("chunk %d of %s", k, s.t.Name))
}
func (s panicSource) ChunkColumns(k int, _ []int) (*rel.Table, func(), error) { return s.Chunk(k) }

// TestPlanPanicDoesNotHang: planning that panics — a corpus registered
// with no mapping — raises the panic on every request for the text and
// leaves no plan entry behind, so the next request plans again instead
// of waiting on the dead one; over HTTP each such request is a 500.
func TestPlanPanicDoesNotHang(t *testing.T) {
	_, _, built := movieFixture(t, 20)
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg})
	if err := svc.RegisterBuilt("broken", built, nil, nil); err != nil {
		t.Fatal(err)
	}
	c, err := svc.corpus("broken")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var err error
		p := func() (p any) {
			defer func() { p = recover() }()
			_, err = c.plan(ctx, serviceQueries[2])
			return nil
		}()
		cancel()
		if p == nil {
			t.Fatalf("plan %d returned %v, want the planning panic", i, err)
		}
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	body, err := json.Marshal(Request{Corpus: "broken", Tenant: "t", XPath: serviceQueries[2]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		hr, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /query %d: %v", i, err)
		}
		var we wireError
		err = json.NewDecoder(hr.Body).Decode(&we)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusInternalServerError || we.Kind != "internal" {
			t.Fatalf("POST /query %d: HTTP %d, kind %q, error %q (%v); want 500, kind internal", i, hr.StatusCode, we.Kind, we.Error, err)
		}
	}
	if snap := reg.Snapshot(); snap["service.plan.misses"] != 4 || snap["service.plan.hits"] != 0 {
		t.Errorf("plan misses=%v hits=%v, want 4/0: every request plans again", snap["service.plan.misses"], snap["service.plan.hits"])
	}
}

// TestQueryRaisesScanPanicOnCaller: a query on four workers over a
// corpus whose scan sources panic raises the first branch's panic on
// Query's caller — the query's two branches scan two tables, so a
// spawned worker panics too, which must not end the process — and
// leaves no admission state behind: the tenant's and the pool's gauges
// read 0, and the next query, on a healthy corpus, answers. Over HTTP
// the same query is answered 500 with kind "internal", which Client
// maps back to ErrInternal, and again leaves every gauge at 0.
func TestQueryRaisesScanPanicOnCaller(t *testing.T) {
	m, db, built := movieFixture(t, 200)
	want := refResults(t, m, db, serviceQueries)
	_, _, bad := movieFixture(t, 200)
	for _, tbl := range bad.DB.Tables() {
		bad.SetScanSource(tbl.Name, panicSource{tbl})
	}
	reg := obs.NewRegistry()
	svc := New(Config{Registry: reg, PoolWorkers: 4})
	if err := svc.RegisterBuilt("bad", bad, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	q := serviceQueries[3] // two branches: scans of movie and aka_title
	p := func() (p any) {
		defer func() { p = recover() }()
		svc.Query(context.Background(), Request{Corpus: "bad", Tenant: "t0", XPath: q, Workers: 4})
		return nil
	}()
	if p != "chunk 0 of movie" {
		t.Fatalf("Query raised %v, want the scan source's panic", p)
	}
	drained := func(label string) {
		t.Helper()
		snap := reg.Snapshot()
		for _, g := range []string{"service.tenant.t0.inflight", "service.tenant.t0.queued", "service.tenant.t0.mem_bytes", "service.pool.busy", "service.queue_depth"} {
			if v, ok := snap[g]; !ok || v != 0 {
				t.Errorf("after the %s %s = %v (present %v), want 0", label, g, v, ok)
			}
		}
	}
	drained("panic")

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(Request{Corpus: "bad", Tenant: "t0", XPath: q, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	var we wireError
	err = json.NewDecoder(hr.Body).Decode(&we)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusInternalServerError || we.Kind != "internal" || !strings.Contains(we.Error, "chunk 0 of movie") {
		t.Fatalf("POST /query: HTTP %d, kind %q, error %q (%v); want 500, kind internal, naming the panic", hr.StatusCode, we.Kind, we.Error, err)
	}
	if _, err := NewClient(ts.URL, nil).Query(context.Background(), Request{Corpus: "bad", Tenant: "t0", XPath: q, Workers: 4}); !errors.Is(err, ErrInternal) {
		t.Fatalf("Client.Query: %v, want ErrInternal", err)
	}
	drained("HTTP panics")
	if n := reg.Counter("service.http.panics").Value(); n != 2 {
		t.Fatalf("service.http.panics = %d, want 2", n)
	}

	resp, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t0", XPath: q, Workers: 4})
	if err != nil {
		t.Fatalf("healthy corpus after the panic: %v", err)
	}
	requireSameResult(t, q, resp, want[3])
}
