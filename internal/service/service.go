// Package service is the multi-tenant query front end over the engine:
// a long-lived server that registers named corpora (each one shared
// engine.Built — or paged storage view — for every session), translates
// and plans XPath once per query text through a process-wide
// single-flight cache, and admits requests under per-tenant concurrency
// and in-flight-memory quotas, a bounded global morsel-worker pool, and
// per-request deadlines. Admitted queries execute through the batch
// executor at whatever parallelism the pool grants; results are
// bit-identical to a direct engine.Execute at any grant (the morsel
// determinism contract), so fairness decisions never change answers.
//
// Everything the admission layer does is observable through the
// obs.Registry handed in at construction: service.admitted /
// service.rejected / service.timedout counters, service.queue_depth and
// service.pool.* gauges, and per-tenant service.tenant.<name>.* gauges
// with lifetime peaks — the property tests assert quota enforcement
// from those gauges, and the -debug-addr endpoints serve them live.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/par"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// Sentinel errors. ErrOverloaded and ErrDeadline are the two
// admission-control outcomes a client must tell apart: the first means
// "back off and retry", the second "the request ran out of time".
var (
	// ErrOverloaded reports a tenant whose wait queue is full; the
	// request was rejected without queueing (fast-fail on overload).
	ErrOverloaded = errors.New("service: tenant overloaded, queue full")
	// ErrDeadline reports a request that ran out of time, in the
	// admission queue or mid-execution. errors.Is also matches the
	// underlying context error (context.DeadlineExceeded or Canceled).
	ErrDeadline = errors.New("service: request deadline exceeded")
	// ErrUnknownCorpus reports a query against a corpus name that was
	// never registered.
	ErrUnknownCorpus = errors.New("service: unknown corpus")
	// ErrClosed fences use after Close.
	ErrClosed = errors.New("service: closed")
	// ErrRequestTooLarge reports an HTTP request body over the server's
	// limit (maxRequestBody); the request was not decoded.
	ErrRequestTooLarge = errors.New("service: request body too large")
	// ErrInternal reports a /query whose execution panicked on the
	// server: the panic is answered, not raised on the connection.
	ErrInternal = errors.New("service: internal error")
)

// DeadlineError is the concrete error for a request that ran out of
// time; Phase says where ("queued" while waiting for admission,
// "execute" mid-query). It matches both ErrDeadline and the wrapped
// context error under errors.Is.
type DeadlineError struct {
	Phase string
	Err   error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("service: deadline exceeded while %s: %v", e.Phase, e.Err)
}

func (e *DeadlineError) Unwrap() error { return e.Err }

// Is matches ErrDeadline so callers can test the service-level
// condition without caring which context error tripped it.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

func wrapDeadline(phase string, err error) error {
	return &DeadlineError{Phase: phase, Err: err}
}

// Config sizes a Service. Zero values take documented defaults.
type Config struct {
	// PoolWorkers is the capacity of the global worker pool: the number
	// of *extra* goroutines (beyond each query's own) that queries may
	// run on process-wide at once. Default GOMAXPROCS; negative is a
	// zero-capacity pool, under which every query runs on its own
	// goroutine and no other.
	PoolWorkers int
	// MaxWorkersPerQuery caps the workers any one query may be granted,
	// counting its own goroutine. Default 4.
	MaxWorkersPerQuery int
	// DefaultTimeout is applied to requests that carry no timeout of
	// their own. 0 = no deadline.
	DefaultTimeout time.Duration
	// DefaultQuota is the quota for tenants without an explicit
	// SetTenantQuota. Zero fields default to MaxConcurrent 4,
	// MaxQueued 16, MemBytes unlimited.
	DefaultQuota TenantQuota
	// Registry receives the admission counters and gauges; nil
	// disables them (metrics no-op). Tracer receives service.query
	// spans; nil disables tracing.
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// Request is one query submission.
type Request struct {
	Corpus string `json:"corpus"`
	Tenant string `json:"tenant"`
	XPath  string `json:"xpath"`
	// Workers is the number of goroutines the request asks to run on,
	// counting its own; 0 takes MaxWorkersPerQuery. The grant may be
	// smaller under load, never larger.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS overrides the service default deadline, in
	// milliseconds; 0 keeps the default, negative (or more than a
	// time.Duration holds) means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MemEstimate is the in-flight memory charge in bytes; 0 or less
	// charges defaultMemEstimate.
	MemEstimate int64 `json:"mem_estimate,omitempty"`
}

// defaultMemEstimate is the in-flight memory charge of a request that
// declares none.
const defaultMemEstimate = 1 << 20

// Response is a completed query: the result plus what admission did
// with the request.
type Response struct {
	Cols  []string
	Rows  [][]rel.Value
	Stats engine.ExecStats
	// Workers is the grant: the number of goroutines the query ran on,
	// counting the request's own (1 = that goroutine alone, whatever the
	// number of union branches).
	Workers int
	// Queued is how long the request waited for admission; Elapsed the
	// total service time including execution.
	Queued  time.Duration
	Elapsed time.Duration
}

// corpus is one registered dataset: a shared Built, the mapping that
// translates XPath against it, its optimizer, and the per-query-text
// plan cache. The Built's own caches (prepared plans by fingerprint,
// join and EXISTS key indexes) are shared across every
// session automatically because the Built itself is shared; plans adds
// the XPath-text → optimizer.Plan step on top, a par.Memo, so
// concurrent first requests for the same text translate and plan once.
type corpus struct {
	name    string
	built   *engine.Built
	mapping *shred.Mapping
	cfg     *physical.Config
	opt     *optimizer.Optimizer

	plans        par.Memo[string, *optimizer.Plan]
	hits, misses *obs.Counter
}

// plan returns the cached optimizer plan for the query text,
// translating and planning it on first use. Errors are cached too:
// translation failure is a property of (mapping, query), so every
// session sees the same answer without re-parsing. A miss is counted
// when planning starts, and every other lookup counts a hit.
func (c *corpus) plan(ctx context.Context, query string) (*optimizer.Plan, error) {
	plan, computed, err := c.plans.Do(ctx, query, func() (*optimizer.Plan, error) {
		c.misses.Inc()
		return c.buildPlan(query)
	})
	if !computed {
		c.hits.Inc()
	}
	return plan, err
}

func (c *corpus) buildPlan(query string) (*optimizer.Plan, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("service: parse: %w", err)
	}
	sql, err := translate.Translate(c.mapping, q)
	if err != nil {
		return nil, fmt.Errorf("service: translate: %w", err)
	}
	return c.opt.PlanQuery(sql, c.cfg)
}

// Service is the long-lived multi-tenant query front end.
type Service struct {
	cfg  Config
	reg  *obs.Registry
	tr   *obs.Tracer
	pool *workerPool

	mu      sync.Mutex
	corpora map[string]*corpus
	tenants map[string]*tenant
	closed  bool

	queueDepth                                     *obs.Gauge
	admitted, rejected, timedout, completed, errct *obs.Counter
}

// New creates a Service. The zero Config is usable: GOMAXPROCS pool
// workers, 4 workers per query, no default deadline, default tenant
// quota {4 concurrent, 16 queued, unlimited memory}, metrics and
// tracing disabled.
func New(cfg Config) *Service {
	if cfg.PoolWorkers == 0 {
		cfg.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.PoolWorkers < 0 {
		cfg.PoolWorkers = 0
	}
	if cfg.MaxWorkersPerQuery <= 0 {
		cfg.MaxWorkersPerQuery = 4
	}
	cfg.DefaultQuota = cfg.DefaultQuota.withDefaults(TenantQuota{MaxConcurrent: 4, MaxQueued: 16})
	s := &Service{
		cfg:        cfg,
		reg:        cfg.Registry,
		tr:         cfg.Tracer,
		pool:       newWorkerPool(cfg.PoolWorkers, cfg.Registry),
		corpora:    make(map[string]*corpus),
		tenants:    make(map[string]*tenant),
		queueDepth: cfg.Registry.Gauge("service.queue_depth"),
		admitted:   cfg.Registry.Counter("service.admitted"),
		rejected:   cfg.Registry.Counter("service.rejected"),
		timedout:   cfg.Registry.Counter("service.timedout"),
		completed:  cfg.Registry.Counter("service.completed"),
		errct:      cfg.Registry.Counter("service.errors"),
	}
	return s
}

// SetTenantQuota pins an explicit quota for a tenant (zero fields take
// the service defaults). Call before the tenant's first query; a quota
// set after traffic started applies to subsequent admissions only.
func (s *Service) SetTenantQuota(name string, q TenantQuota) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		s.tenants[name] = newTenant(name, q.withDefaults(s.cfg.DefaultQuota), s.reg)
		return
	}
	t.mu.Lock()
	t.quota = q.withDefaults(s.cfg.DefaultQuota)
	t.mu.Unlock()
}

func (s *Service) tenant(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = newTenant(name, s.cfg.DefaultQuota, s.reg)
		s.tenants[name] = t
	}
	return t
}

// RegisterBuilt registers a corpus over an already materialized Built.
// The mapping must be the one the data was shredded under (it drives
// XPath translation); cfg nil takes the Built's own configuration. The
// Built is shared by every session from here on and its tables must not
// grow (its Build-time row counts fail queries loudly if they do).
func (s *Service) RegisterBuilt(name string, b *engine.Built, m *shred.Mapping, cfg *physical.Config) error {
	if cfg == nil {
		cfg = b.Config
	}
	return s.register(&corpus{
		name:    name,
		built:   b,
		mapping: m,
		cfg:     cfg,
		opt:     optimizer.New(stats.FromDatabase(b.DB)),
	})
}

// RegisterStore registers a corpus served from a durable store. With
// paged=false the store's tables are assembled up front (Store.Built);
// with paged=true driver-stage scans pull chunks through the store's
// budgeted pager (Store.PagedBuilt), so every session's scans share one
// CLOCK-managed chunk cache and the corpus serves data larger than RAM.
// A resident Built owns its tables — it keeps answering with the rows
// it was built over whatever the store does next. A paged one keeps
// answering with the rows committed at registration across appends, and
// turns stale (errors, never wrong rows) once the store compacts.
// Optimizer statistics are collected once at registration, on up to
// GOMAXPROCS workers: from the Built's own tables when resident, and
// table by table when paged (stats.FromTables), so a paged registration
// holds one assembled table per worker, never a copy of the corpus.
// Assembly reads the segment files, not the pager, so registration
// leaves the chunk cache as it found it: the scans fill it.
func (s *Service) RegisterStore(name string, st *storage.Store, m *shred.Mapping, paged bool) error {
	if !paged {
		b, err := st.Built()
		if err != nil {
			return fmt.Errorf("service: register %s: %w", name, err)
		}
		return s.RegisterBuilt(name, b, m, nil)
	}
	tables := st.Manifest().Tables
	prov, err := stats.FromTables(len(tables), func(i int) (*rel.Table, error) {
		return st.Table(tables[i].Name)
	})
	if err != nil {
		return fmt.Errorf("service: register %s: %w", name, err)
	}
	b, err := st.PagedBuilt()
	if err != nil {
		return fmt.Errorf("service: register %s: %w", name, err)
	}
	return s.register(&corpus{
		name:    name,
		built:   b,
		mapping: m,
		cfg:     b.Config,
		opt:     optimizer.New(prov),
	})
}

func (s *Service) register(c *corpus) error {
	c.hits = s.reg.Counter("service.plan.hits")
	c.misses = s.reg.Counter("service.plan.misses")
	c.built.AttachObs(s.tr, s.reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.corpora[c.name]; dup {
		return fmt.Errorf("service: corpus %q already registered", c.name)
	}
	s.corpora[c.name] = c
	return nil
}

// CorpusInfo describes a registered corpus for listings.
type CorpusInfo struct {
	Name   string `json:"name"`
	Tables int    `json:"tables"`
	Rows   int    `json:"rows"`
}

// Corpora lists registered corpora sorted by name.
func (s *Service) Corpora() []CorpusInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CorpusInfo, 0, len(s.corpora))
	for _, c := range s.corpora {
		info := CorpusInfo{Name: c.name}
		for _, t := range c.built.DB.Tables() {
			info.Tables++
			info.Rows += t.RowCount()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Service) corpus(name string) (*corpus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	c, ok := s.corpora[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCorpus, name)
	}
	return c, nil
}

// timeout resolves the request's deadline: per-request override, else
// the service default; negative disables, and so does an override too
// large for a time.Duration (≈ 292 years), which would otherwise wrap to
// a tiny or negative deadline.
func (s *Service) timeout(req Request) time.Duration {
	if req.TimeoutMS < 0 || req.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return 0
	}
	if req.TimeoutMS > 0 {
		return time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// Query runs one request end to end: resolve the corpus, translate and
// plan through the shared plan cache, admit under the tenant's quota
// (queueing FIFO, failing fast on a full queue), borrow extra workers
// from the global pool, execute, release. The context and the resolved
// deadline govern every phase; a request past its deadline returns a
// DeadlineError promptly — from the queue without ever occupying quota,
// or from execution via the engine's per-batch cancellation polls — and
// never poisons a shared cache entry (see par.Memo).
func (s *Service) Query(ctx context.Context, req Request) (*Response, error) {
	resp := &Response{}
	err := s.serve(ctx, req, resp, func(ctx context.Context, pp *engine.PreparedPlan, workers int) (int, error) {
		res, err := pp.ExecuteContextWorkers(ctx, workers)
		if err != nil {
			return 0, err
		}
		resp.Cols, resp.Rows, resp.Stats = res.Cols, res.Rows, res.Stats
		return len(res.Rows), nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// serve is a request's whole path but the execution itself: exec runs
// the admitted request's prepared plan on workers goroutines under ctx,
// records the result where its caller reads it, and reports the number
// of result rows. Query runs the plan to result rows, the /query handler
// to wire bytes (see handleQuery); both share the corpus lookup,
// deadline, span, plan cache, admission, worker grant and error taxonomy
// here. On success serve sets resp's Workers, Queued and Elapsed,
// Elapsed taken when exec returns.
func (s *Service) serve(ctx context.Context, req Request, resp *Response,
	exec func(ctx context.Context, pp *engine.PreparedPlan, workers int) (rows int, err error)) error {
	start := time.Now()
	c, err := s.corpus(req.Corpus)
	if err != nil {
		s.errct.Inc()
		return err
	}
	if d := s.timeout(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	sp := s.tr.StartSpan("service.query",
		obs.String("corpus", req.Corpus), obs.String("tenant", req.Tenant))
	defer sp.End()

	fail := func(phase string, err error) error {
		err = s.classify(phase, err)
		sp.SetAttr(obs.String("error", err.Error()))
		return err
	}

	// Plan before admission: a parse or translation error must not
	// consume quota, and the plan cache is single-flighted so this is
	// cheap for every request after the first.
	plan, err := c.plan(ctx, req.XPath)
	if err != nil {
		return fail("plan", err)
	}

	mem := req.MemEstimate
	if mem <= 0 {
		mem = defaultMemEstimate
	}
	t := s.tenant(req.Tenant)
	if err := ctx.Err(); err != nil {
		// Already expired: don't even queue.
		return fail("queued", err)
	}
	if err := t.acquire(ctx, mem, s.queueDepth); err != nil {
		return fail("queued", err)
	}
	defer t.release(mem)
	queued := time.Since(start)
	s.admitted.Inc()

	want := req.Workers
	if want <= 0 || want > s.cfg.MaxWorkersPerQuery {
		want = s.cfg.MaxWorkersPerQuery
	}
	extra := s.pool.acquire(want)
	defer s.pool.release(extra)
	workers := 1 + extra
	sp.SetAttr(obs.Int("workers", int64(workers)))

	pp, err := c.built.PreparedContext(ctx, plan)
	if err != nil {
		return fail("prepare", err)
	}
	rows, err := exec(ctx, pp, workers)
	if err != nil {
		return fail("execute", err)
	}
	s.completed.Inc()
	sp.SetAttr(obs.Int("rows", int64(rows)))
	resp.Workers, resp.Queued, resp.Elapsed = workers, queued, time.Since(start)
	return nil
}

// classify folds an error into the admission taxonomy and counts it:
// context expiry anywhere becomes a DeadlineError for the phase,
// overload stays ErrOverloaded, anything else is a plain failure.
func (s *Service) classify(phase string, err error) error {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.rejected.Inc()
		return err
	case errors.Is(err, ErrDeadline):
		s.timedout.Inc()
		return err
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.timedout.Inc()
		return wrapDeadline(phase, err)
	default:
		s.errct.Inc()
		return err
	}
}

// PoolPeak returns the worker pool's lifetime occupancy high-water
// mark (test and monitoring hook).
func (s *Service) PoolPeak() int { return s.pool.Peak() }

// TenantPeaks returns a tenant's lifetime in-flight and memory
// high-water marks; ok is false if the tenant never submitted.
func (s *Service) TenantPeaks(name string) (inflight int, mem int64, ok bool) {
	s.mu.Lock()
	t, exists := s.tenants[name]
	s.mu.Unlock()
	if !exists {
		return 0, 0, false
	}
	inflight, mem = t.Peaks()
	return inflight, mem, true
}

// Close fences the service: subsequent Query and register calls fail
// with ErrClosed. In-flight queries finish; Close does not wait for
// them (the engine has no long-lived background work to reap).
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
