package main

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/service"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// The rungs of the serving ladder, bottom-up. Each request of the traced
// run climbs all of them: every rung calls one public function of the
// program, and a rung's overhead is its duration minus the rung below.
const (
	rungParse     = "xpath.Parse"
	rungTranslate = "translate.Translate"
	rungPlan      = "Optimizer.PlanQuery"
	rungPrepared  = "Built.Prepared"
	rungExecute   = "PreparedPlan.ExecuteContextWorkers"
	rungService   = "Service.Query"
	rungClient    = "Client.Query"
	spanChunk     = "ChunkScan.Chunk"
)

// tracedSource wraps a storage-backed scan source so that every
// Chunk(k) the executor pulls becomes a span under the execute rung, and
// samples the store's resident chunk bytes right after each admission,
// which is when residency peaks.
type tracedSource struct {
	engine.ScanSource
	l *ladder
}

func (t *tracedSource) Chunk(k int) (*rel.Table, func(), error) {
	t.l.mu.Lock()
	parent := t.l.executing
	t.l.mu.Unlock()
	var c *span
	if parent != nil {
		c = parent.child(spanChunk)
	}
	tab, release, err := t.ScanSource.Chunk(k)
	if c != nil {
		c.end()
	}
	if err == nil {
		t.l.sampleResidency()
	}
	return tab, release, err
}

// ladder is the state of a serving traced run.
type ladder struct {
	f     *serveFixture
	tr    *tracer
	built *engine.Built // the benchmark's own Built or PagedBuilt over the served store
	opt   *optimizer.Optimizer

	mu        sync.Mutex
	executing *span // the execute rung that is open, for chunk spans
	peakChunk int64 // highest resident chunk bytes seen

	counters  map[string]float64 // registry deltas summed over the Service.Query rungs
	rowsOut   map[string]int64   // rung → result rows
	scanned   int64              // rows scanned by the execute rung
	queued    []float64          // Response.Queued of the Service.Query rung, µs
	tables    float64            // bytes of the tables the plans of the Service.Query rungs read
	httpBytes int64              // response body bytes of the Client.Query rungs
}

func (l *ladder) sampleResidency() {
	_, chunks := l.f.s.store.ResidentBytes()
	l.mu.Lock()
	if chunks > l.peakChunk {
		l.peakChunk = chunks
	}
	l.mu.Unlock()
}

var pagerCounters = []string{"storage.pager.hits", "storage.pager.faults", "storage.pager.evictions", "storage.segment.bytes_read"}

// climb sends one request up every rung and checks each answer's row
// count against the oracle.
func (l *ladder) climb(r *run, id int64, qi int, executeFirst bool) error {
	q := &l.f.queries[qi]
	s := l.f.s
	ctx := context.Background()
	root := l.tr.request("request", id)
	defer root.end()

	var (
		xq   *xpath.Query
		sql  *sqlast.Query
		plan *optimizer.Plan
		pp   *engine.PreparedPlan
		err  error
	)
	if _, err = root.do(rungParse, func() error { xq, err = xpath.Parse(q.text); return err }); err != nil {
		return err
	}
	if _, err = root.do(rungTranslate, func() error { sql, err = translate.Translate(l.f.design.mapping, xq); return err }); err != nil {
		return err
	}
	if _, err = root.do(rungPlan, func() error { plan, err = l.opt.PlanQuery(sql, l.built.Config); return err }); err != nil {
		return err
	}
	if _, err = root.do(rungPrepared, func() error { pp, err = l.built.Prepared(plan); return err }); err != nil {
		return err
	}

	check := func(rung string, rows int, err error) {
		r.attempted++
		switch {
		case err != nil:
			r.fail(1, "%s %q: %v", rung, q.text, err)
		case rows != q.rows:
			r.fail(1, "%s %q: %d rows, the reference executor says %d", rung, q.text, rows, q.rows)
		}
		l.rowsOut[rung] += int64(rows)
	}

	execute := func() {
		ex := root.child(rungExecute)
		l.mu.Lock()
		l.executing = ex
		l.mu.Unlock()
		res, err := pp.ExecuteContextWorkers(ctx, 1)
		l.mu.Lock()
		l.executing = nil
		l.mu.Unlock()
		ex.end()
		if err == nil {
			l.scanned += res.Stats.RowsScanned
			check(rungExecute, len(res.Rows), nil)
		} else {
			check(rungExecute, 0, err)
		}
	}
	var resp *service.Response
	req := service.Request{Corpus: corpusName, Tenant: "traced", XPath: q.text, Workers: 1}
	serve := func() {
		before := make([]int64, len(pagerCounters))
		for i, n := range pagerCounters {
			before[i] = s.reg.Counter(n).Value()
		}
		_, err := root.do(rungService, func() (err error) { resp, err = s.svc.Query(ctx, req); return err })
		for i, n := range pagerCounters {
			l.counters[n] += float64(s.reg.Counter(n).Value() - before[i])
		}
		l.sampleResidency()
		if err == nil {
			l.queued = append(l.queued, us(resp.Queued))
			check(rungService, len(resp.Rows), nil)
		} else {
			check(rungService, 0, err)
		}
	}
	// Whichever of the two runs second finds the data warm in the CPU's
	// caches, which is worth more than the service layer costs; taking
	// turns lets the difference of their medians cancel that.
	if executeFirst {
		execute()
		serve()
	} else {
		serve()
		execute()
	}
	for _, obj := range plan.Objects() {
		if e := s.store.Manifest().Table(obj); e != nil {
			l.tables += float64(e.Bytes)
		}
	}

	bytes0 := s.meter.bytes.Load()
	_, err = root.do(rungClient, func() error { resp, err = s.client.Query(ctx, req); return err })
	l.httpBytes += s.meter.bytes.Load() - bytes0
	if err == nil {
		check(rungClient, len(resp.Rows), nil)
	} else {
		check(rungClient, 0, err)
	}
	return nil
}

// perQuery is the mean over the mix's queries of the median duration,
// in microseconds, that a rung took for each query. Requests walk the
// mix in order, so the i-th duration of a rung belongs to query i mod n.
func (t *tracer) perQuery(rung string, n int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := make([][]float64, n)
	for i, d := range t.dur[rung] {
		by[i%n] = append(by[i%n], d)
	}
	var total float64
	for _, v := range by {
		total += median(v)
	}
	return total / float64(n)
}

func (cfg *config) tracePasses(sp serveSpec) int {
	switch {
	case cfg.quick:
		return 2
	case sp.http:
		return 20 // seeks: 400 requests
	default:
		return 3 // scans return up to 64 k rows a request over HTTP as well
	}
}

// traceServing is the traced run of a serving workload: one caller, a
// fixed number of passes over the mix so that counts repeat exactly.
func traceServing(cfg *config, r *run, sp serveSpec) error {
	f, err := setUpServing(cfg, r, sp, 1, true)
	if err != nil {
		return err
	}
	defer f.s.close()
	s := f.s
	nq := len(f.queries)
	ctx := context.Background()

	snap := s.reg.Snapshot()
	l := &ladder{f: f, tr: newTracer(true), opt: optimizer.New(stats.FromDatabase(f.oracle.db)),
		counters: make(map[string]float64), rowsOut: make(map[string]int64)}
	benchReg := obs.NewRegistry()
	if sp.paged {
		l.built, err = s.store.PagedBuilt()
	} else {
		l.built, err = s.store.Built()
	}
	if err != nil {
		return err
	}
	l.built.AttachObs(nil, benchReg)
	for _, t := range l.built.DB.Tables() {
		if src := l.built.ScanSource(t.Name); src != nil {
			l.built.SetScanSource(t.Name, &tracedSource{ScanSource: src, l: l})
		}
	}

	// Set-up steps, from the one bring-up this run did.
	r.set("xmlgen.generate_ms", s.steps["generate"])
	r.set("shred.compile_ms", s.steps["compile"])
	r.set("shred.shred_rows_per_s", float64(s.rows)/(s.steps["shred"]/1e3))
	r.set("engine.build_ms", s.steps["build"])
	r.set("storage.save_ms", s.steps["save"])
	r.set("storage.open_ms", s.steps["open"])
	r.set("storage.load_rows_per_s", float64(s.rows)/((s.steps["shred"]+s.steps["build"]+s.steps["save"])/1e3))
	r.set("storage.save_bytes_written", snap["storage.save.bytes_written"])
	r.set("storage.built_ms", snap["storage.built.ms"])
	r.set("storage.paged_built_ms", snap["storage.paged_built.ms"])
	if dir, err := dirBytes(s.dir); err == nil {
		r.set("storage.stored_bytes_per_data_byte", float64(dir)/float64(s.data))
	}

	// First contact of the benchmark's own Built with each plan: a
	// prepared-plan miss, and a full hash check of this serving path.
	var prepareMiss []float64
	for i := range f.queries {
		q := &f.queries[i]
		plan, err := l.opt.PlanQuery(mustTranslate(f, q), l.built.Config)
		if err != nil {
			return err
		}
		t0 := time.Now()
		pp, err := l.built.Prepared(plan)
		prepareMiss = append(prepareMiss, us(time.Since(t0)))
		if err != nil {
			return err
		}
		res, err := pp.ExecuteContextWorkers(ctx, 1)
		r.attempted++
		if err != nil {
			r.fail(1, "direct execution of %q: %v", q.text, err)
		} else if len(res.Rows) != q.rows || hashRows(res.Rows) != q.hash {
			r.fail(1, "direct execution of %q: %d rows (hash %x), the reference executor says %d (hash %x)", q.text, len(res.Rows), hashRows(res.Rows), q.rows, q.hash)
		}
	}
	r.set("engine.prepare_us", median(prepareMiss))

	// The ladder, traced, and the same requests untraced for the overhead.
	before := s.reg.Snapshot()
	passes := cfg.tracePasses(sp)
	plain := &ladder{f: f, tr: newTracer(false), opt: l.opt, built: l.built,
		counters: make(map[string]float64), rowsOut: make(map[string]int64)}
	var tracedS, plainS float64
	for p := 0; p < passes; p++ {
		scratch := newRun(r.workload)
		pass := func(on *ladder, into *run) (float64, error) {
			t0 := time.Now()
			for qi := 0; qi < nq; qi++ {
				if err := on.climb(into, int64(p*nq+qi), qi, p%2 == 0); err != nil {
					return 0, err
				}
			}
			return time.Since(t0).Seconds(), nil
		}
		// The traced and the untraced pass take turns going first, for the
		// same reason.
		var ts, ps float64
		if p%4 < 2 {
			ts, err = pass(l, r)
			if err == nil {
				ps, err = pass(plain, scratch)
			}
		} else {
			ps, err = pass(plain, scratch)
			if err == nil {
				ts, err = pass(l, r)
			}
		}
		if err != nil {
			return err
		}
		tracedS += ts
		plainS += ps
		r.attempted += scratch.attempted
		r.failed += scratch.failed
		r.failures = append(r.failures, scratch.failures...)
	}
	after := s.reg.Snapshot()
	requests := float64(passes * nq)
	tr := l.tr

	r.set("xpath.parse_us", tr.perQuery(rungParse, nq))
	r.set("translate.translate_us", tr.perQuery(rungTranslate, nq))
	r.set("optimizer.plan_us", tr.perQuery(rungPlan, nq))
	r.set("engine.prepared_hit_us", tr.perQuery(rungPrepared, nq))
	// What a plan-cache miss adds to a request: the three calls
	// service.buildPlan makes, timed here from outside.
	r.set("service.plan_miss_us", tr.perQuery(rungParse, nq)+tr.perQuery(rungTranslate, nq)+tr.perQuery(rungPlan, nq))
	execUS := tr.perQuery(rungExecute, nq)
	svcUS := tr.perQuery(rungService, nq)
	httpUS := tr.perQuery(rungClient, nq)
	r.set("engine.execute_us", execUS)
	r.set("service.query_us", svcUS)
	r.set("service.overhead_us", svcUS-execUS)
	r.set("http.roundtrip_us", httpUS)
	r.set("http.overhead_us", httpUS-svcUS)
	r.set("service.queued_us", median(l.queued))
	r.set("service.pool_peak", float64(s.svc.PoolPeak()))
	r.set("service.plan_cache_hit_ratio", ratio(after["service.plan.hits"], after["service.plan.hits"]+after["service.plan.misses"]))
	r.set("obs.trace_overhead_ratio", tracedS/plainS)
	r.set("engine.rows_scanned_per_row_out", ratio(float64(l.scanned), float64(l.rowsOut[rungExecute])))
	r.set("engine.rows_scanned_per_query", float64(l.scanned)/requests)
	r.set("http.response_bytes_per_row", ratio(float64(l.httpBytes), float64(l.rowsOut[rungClient])))
	top := rungService
	if sp.http {
		top = rungClient
	}
	topLat := sortedCopy(tr.dur[top])
	r.set("loadgen.lat_p99_ms", quantile(topLat, min99(len(topLat)))/1e3)

	// Pager traffic of the Service.Query rungs only.
	r.set("storage.pager_faults_per_query", l.counters["storage.pager.faults"]/requests)
	r.set("storage.pager_evictions_per_query", l.counters["storage.pager.evictions"]/requests)
	r.set("storage.bytes_read_per_query", l.counters["storage.segment.bytes_read"]/requests)
	r.set("storage.pager_hit_ratio", ratio(l.counters["storage.pager.hits"], l.counters["storage.pager.hits"]+l.counters["storage.pager.faults"]))
	r.set("storage.read_amp", ratio(l.counters["storage.segment.bytes_read"], l.tables))
	if sp.paged {
		// One pinned chunk and one in-flight load per union branch that runs at once.
		branches := runtime.GOMAXPROCS(0)
		var chunk int64 // a full chunk of the widest table, from the manifest
		for _, e := range s.store.Manifest().Tables {
			if e.Rows > 0 && e.ChunkRows > 0 {
				chunk = max(chunk, e.Bytes*int64(min(e.ChunkRows, e.Rows))/int64(e.Rows))
			}
		}
		bound := s.budget + 2*int64(branches)*chunk
		r.set("storage.peak_over_bound", float64(l.peakChunk)/float64(bound))
		r.note("residency: peak %d chunk bytes sampled after every admission, bound %d = budget %d + 2 x %d branches x %d bytes a chunk", l.peakChunk, bound, s.budget, branches, chunk)
		if err := chunkCosts(r, s.store, s.reg); err != nil {
			return err
		}
	}

	// Two workers, and the reference executor on the resident oracle.
	if err := engineExtras(r, l, benchReg, execUS); err != nil {
		return err
	}
	var hits, total int64
	for k, v := range l.built.CacheCounters() {
		total += v
		if strings.HasSuffix(k, ".hits") {
			hits += v
		}
	}
	r.set("engine.cache_hit_ratio", ratio(float64(hits), float64(total)))
	r.note("traced run: %d passes over %d queries, one caller; %d spans; every scan number includes the engine's scanTouchPasses", passes, nq, tr.obs.SpanCount())
	return tr.finish(cfg, r.workload, before, after)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// min99 is the highest percentile up to the 99th with ten samples
// beyond it.
func min99(n int) float64 {
	if n < 20 {
		return 1
	}
	if q := 1 - 10/float64(n); q < 0.99 {
		return q
	}
	return 0.99
}

func mustTranslate(f *serveFixture, q *query) *sqlast.Query {
	sql, err := translate.Translate(f.design.mapping, q.xp)
	if err != nil {
		panic(err) // set-up translated this query already
	}
	return sql
}

// chunkCosts times cold and warm Chunk(k) calls on the largest table,
// telling them apart by whether the pager counted a fault.
func chunkCosts(r *run, st *storage.Store, reg *obs.Registry) error {
	var table string
	var most int64
	for _, e := range st.Manifest().Tables {
		if e.Bytes > most {
			table, most = e.Name, e.Bytes
		}
	}
	cs, err := st.ChunkScan(table)
	if err != nil {
		return err
	}
	faults := reg.Counter("storage.pager.faults")
	var fault, hit []float64
	for round := 0; round < 3; round++ {
		for k := 0; k < cs.NumChunks(); k++ {
			for again := 0; again < 2; again++ {
				f0 := faults.Value()
				t0 := time.Now()
				_, release, err := cs.Chunk(k)
				if err != nil {
					return err
				}
				release()
				d := us(time.Since(t0))
				if faults.Value() > f0 {
					fault = append(fault, d)
				} else {
					hit = append(hit, d)
				}
			}
		}
	}
	r.set("storage.chunk_fault_us", median(fault))
	r.set("storage.chunk_hit_us", median(hit))
	return nil
}

// engineExtras measures what the ladder does not: the same plans at two
// workers, and the batch executor against the reference executor on the
// resident oracle (a ratio in which machine speed cancels).
func engineExtras(r *run, l *ladder, benchReg *obs.Registry, execUS float64) error {
	ctx := context.Background()
	f := l.f
	nq := len(f.queries)
	var w2, ref, resident float64
	morsels0 := benchReg.Counter("engine.exec.morsels").Value()
	for i := range f.queries {
		plan, err := l.opt.PlanQuery(mustTranslate(f, &f.queries[i]), l.built.Config)
		if err != nil {
			return err
		}
		pp, err := l.built.Prepared(plan)
		if err != nil {
			return err
		}
		var d []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := pp.ExecuteContextWorkers(ctx, 2); err != nil {
				return err
			}
			d = append(d, us(time.Since(t0)))
		}
		w2 += median(d)

		op, err := f.oracle.built.Prepared(f.plans[i])
		if err != nil {
			return err
		}
		d = d[:0]
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := op.ExecuteContextWorkers(ctx, 1); err != nil {
				return err
			}
			d = append(d, us(time.Since(t0)))
		}
		resident += median(d)
		t0 := time.Now()
		if _, err := engine.ExecuteReference(f.oracle.built, f.plans[i]); err != nil {
			return err
		}
		ref += us(time.Since(t0))
	}
	r.set("engine.execute_w2_us", w2/float64(nq))
	r.set("engine.morsel_speedup_w2", ratio(execUS, w2/float64(nq)))
	r.set("engine.morsels_per_query", float64(benchReg.Counter("engine.exec.morsels").Value()-morsels0)/float64(3*nq))
	r.set("engine.reference_ratio", ratio(resident, ref))
	if f.sp.paged {
		r.set("storage.paged_over_resident", ratio(execUS, resident/float64(nq)))
	}
	return nil
}
