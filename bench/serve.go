package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/shred"
	"repro/internal/storage"
)

// serveSpec is what tells the three serving workloads apart.
type serveSpec struct {
	class   int  // workload.StandardParams class: 0 LP-HS (seeks), 1 LP-LS (scans)
	queries int  // size of the mix
	advised bool // Greedy-advised design, else untuned hybrid inlining
	paged   bool // store reopened under data/4 and served chunk by chunk
	http    bool // requests go through service.Client over loopback
}

var serveSpecs = map[string]serveSpec{
	"serve_seek_http":     {class: 0, queries: 20, advised: true, http: true},
	"serve_scan_paged":    {class: 1, queries: 8, paged: true},
	"serve_scan_resident": {class: 1, queries: 8},
}

const (
	serveScale   = 1.0 // 20 000 inproceedings + 2 000 books, ~136 k rows, ~7 MB columnar
	serveClients = 2   // closed loop, one per hardware thread of the box this was sized on
	corpusName   = "dblp"
)

// serving is one corpus saved, reopened and registered with a service.
type serving struct {
	dir    string
	reg    *obs.Registry
	store  *storage.Store
	svc    *service.Service
	srv    *service.Server
	client *service.Client
	meter  *byteMeter
	data   int64 // bytes of columnar data the manifest records
	budget int64 // MemBudgetBytes the store was reopened with (0 = none)
	rows   int
	steps  map[string]float64 // set-up step → milliseconds (or a count)
}

func (s *serving) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// query sends one request the way the workload's callers do.
func (s *serving) query(ctx context.Context, client int, text string) (*service.Response, error) {
	req := service.Request{Corpus: corpusName, Tenant: fmt.Sprintf("session-%d", client), XPath: text, Workers: 1}
	if s.client != nil {
		return s.client.Query(ctx, req)
	}
	return s.svc.Query(ctx, req)
}

// bringUp runs the program's whole path from a document to a corpus
// that answers queries: shred, build, save, reopen (under a budget of a
// quarter of the data when paged), register, listen. It returns the
// resident pre-save build as well, which the oracle runs on.
func bringUp(cfg *config, sp serveSpec, d design, c *corpus) (*serving, *loaded, error) {
	dir, err := cfg.scratch("store")
	if err != nil {
		return nil, nil, err
	}
	s := &serving{dir: dir, reg: obs.NewRegistry(), steps: make(map[string]float64)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	ck := startClock()
	l, err := load(d, c.doc)
	if err != nil {
		return nil, nil, err
	}
	ck.lap()
	s.steps["shred"], s.steps["build"] = l.shredMS, l.buildMS
	s.rows = l.rows
	man, err := storage.Save(dir, l.built, storage.Options{Registry: s.reg, MappingSQL: d.mapping.SQLSchema()})
	if err != nil {
		return nil, nil, fmt.Errorf("save: %w", err)
	}
	s.steps["save"] = ck.lap()
	for _, e := range man.Tables {
		s.data += e.Bytes
	}
	if sp.paged {
		s.budget = s.data / 4
	}
	s.store, err = storage.Open(dir, storage.Options{Registry: s.reg, MemBudgetBytes: s.budget})
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	s.steps["open"] = ck.lap()
	s.svc = service.New(service.Config{PoolWorkers: runtime.NumCPU(), Registry: s.reg})
	if err := s.svc.RegisterStore(corpusName, s.store, d.mapping, sp.paged); err != nil {
		return nil, nil, fmt.Errorf("register: %w", err)
	}
	if sp.http || cfg.trace {
		s.srv, err = service.Serve("127.0.0.1:0", s.svc)
		if err != nil {
			return nil, nil, err
		}
		s.meter = &byteMeter{}
		s.client = service.NewClient("http://"+s.srv.Addr, s.meter.client())
	}
	s.steps["register"] = ck.lap()
	ok = true
	return s, l, nil
}

// serveFixture is everything a serving run needs after set-up.
type serveFixture struct {
	sp      serveSpec
	design  design
	queries []query
	plans   []*optimizer.Plan // plans the oracle ran, under the oracle's statistics
	s       *serving
	oracle  *loaded // kept for the traced run only
	adviseS float64
	setupS  float64   // corrected for memory speed
	reps    []float64 // seconds of every bring-up
}

// setUpServing generates the corpus and the mix, chooses the design,
// brings the corpus up `reps` times keeping the last, computes the
// oracle on the first, and warms every query up through the serving
// path while checking its full result hash.
func setUpServing(cfg *config, r *run, sp serveSpec, reps int, keepOracle bool) (*serveFixture, error) {
	f := &serveFixture{sp: sp}
	mem := &memSpeed{} // sampled between the steps of set-up
	mem.sample()
	ck := startClock()
	tree := schema.DBLP()
	c := generateCorpus(tree, cfg.scale(serveScale), cfg.seed)
	genMS := ck.lap()
	c.collect()
	statsMS := ck.lap()
	w, qs, err := generateQueries(c, sp.class, sp.queries)
	if err != nil {
		return nil, err
	}
	f.queries = qs
	ck.lap()
	hybrid, err := shred.Compile(tree)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	compileMS := ck.lap()
	if sp.advised {
		adv := core.New(c.tree, c.col, w, core.Options{Parallelism: runtime.NumCPU()})
		res, err := adv.Greedy()
		if err != nil {
			return nil, fmt.Errorf("advise: %w", err)
		}
		f.design = design{mapping: res.Mapping, cfg: res.Config}
		// The advisor needs the document statistics; an untuned corpus does not.
		f.adviseS = (ck.lap() + statsMS) / 1e3
		r.note("advised design: %d relations, %d indexes, %d views, %d partitions, est cost %.1f, search %.2fs",
			len(res.Mapping.Relations), len(res.Config.Indexes), len(res.Config.Views), len(res.Config.Partitions), res.EstCost, res.Metrics.Duration.Seconds())
	} else {
		f.design = design{mapping: hybrid, cfg: &physical.Config{}}
		f.adviseS = compileMS / 1e3
	}
	for i := 0; i < reps; i++ {
		mem.sample()
		if i > 0 {
			ck.lap()
			c = generateCorpus(tree, cfg.scale(serveScale), cfg.seed)
			genMS = ck.lap()
			mem.sample()
		}
		t0 := time.Now()
		s, l, err := bringUp(cfg, sp, f.design, c)
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, genMS/1e3+time.Since(t0).Seconds())
		s.steps["generate"], s.steps["compile"] = genMS, compileMS
		if i == 0 {
			if f.plans, err = answer(f.queries, f.design, l); err != nil {
				s.close()
				return nil, err
			}
			if keepOracle {
				f.oracle = l
			}
		}
		if f.s != nil {
			f.s.close()
		}
		f.s = s
	}
	mem.sample()
	ck.lap()
	for i, q := range f.queries {
		r.attempted++
		resp, err := f.s.query(context.Background(), i%serveClients, q.text)
		switch {
		case err != nil:
			r.fail(1, "warm-up %q: %v", q.text, err)
		case len(resp.Rows) != q.rows || hashRows(resp.Rows) != q.hash:
			r.fail(1, "warm-up %q: %d rows (hash %x), the reference executor says %d (hash %x)", q.text, len(resp.Rows), hashRows(resp.Rows), q.rows, q.hash)
		}
	}
	warmS := ck.lap() / 1e3
	mem.sample()
	raw := f.adviseS + median(f.reps) + warmS
	f.setupS = raw / mem.factor()
	r.note("set-up: %v; setup_s as measured, before the correction: %.4g", mem, raw)
	return f, nil
}

// runServing is the end-to-end run of a serving workload: tracing off,
// two closed-loop callers for cfg.seconds.
func runServing(cfg *config, r *run, sp serveSpec) error {
	reps := 3 // so that setup_s can be a median
	if cfg.quick {
		reps = 2
	}
	f, err := setUpServing(cfg, r, sp, reps, false)
	if err != nil {
		return err
	}
	defer f.s.close()
	s := f.s
	r.note("corpus: %d rows, %d data bytes, budget %d bytes, chunk rows %d, %d distinct queries, %d closed-loop clients, 1 worker per query",
		s.rows, s.data, s.budget, storage.DefaultChunkRows, len(f.queries), serveClients)

	win := beginWindow()
	mem := &memSpeed{}
	ops, errs := closedLoop(serveClients, time.Duration(cfg.seconds*float64(time.Second)),
		orders(len(f.queries), serveClients, cfg.seed), mem, func(client, item int) error {
			q := &f.queries[item]
			resp, err := s.query(context.Background(), client, q.text)
			if err != nil {
				return fmt.Errorf("%q: %w", q.text, err)
			}
			if len(resp.Rows) != q.rows {
				return fmt.Errorf("%q: %d rows, the reference executor says %d", q.text, len(resp.Rows), q.rows)
			}
			return nil
		})
	allocated, inuse := win.end()
	for _, e := range errs {
		r.fail(1, "%v", e)
	}
	r.attempted += int64(len(ops) + len(errs))
	if len(ops) == 0 {
		return fmt.Errorf("no request completed inside the window")
	}
	reportLoop(r, ops, tailP95, mem, allocated, inuse)

	r.set("setup_s", f.setupS)
	return nil
}
