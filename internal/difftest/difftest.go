package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/par"
	"repro/internal/physdesign"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/service"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/translate"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// Case identifies one differential trial. Every random decision derives
// deterministically from Seed, so a Case is a complete replay spec.
type Case struct {
	// Seed drives schema, document, workload, transformation, and
	// physical-design generation through independent substreams.
	Seed int64
	// RootInstances scales the document (top-level element counts are
	// drawn from 1..2*RootInstances).
	RootInstances int
	// Steps is the length of the random transformation sequence.
	Steps int
	// Queries is the workload size.
	Queries int
	// Only restricts execution to the query with this index; -1 runs
	// all queries (used by shrinking to isolate a failure).
	Only int
	// CheckCosts enables the cost-model invariant checks.
	CheckCosts bool
	// Persist enables the persistence round trip: the built store is
	// saved to a scratch directory, reopened, and every query must
	// return bit-identical results at identical plan costs from the
	// reopened store — both through assembled tables and through the
	// chunk-granular paged scan path (Store.PagedBuilt).
	Persist bool
	// PersistBudget is the memory budget (bytes) the reopened store runs
	// under. Zero derives a deliberately tiny budget from the database
	// size, so the round trip exercises chunk paging and table eviction;
	// a value > 1 pins an explicit budget (as recorded in replay specs).
	PersistBudget int64
	// Service enables the service-equivalence stage: the trial's
	// workload is also submitted through an in-process multi-tenant
	// service (concurrent sessions, seeded random quotas and worker
	// counts) and every response must be bit-identical to the direct
	// engine execution.
	Service bool
}

// DefaultCase is the standard trial shape for a seed.
func DefaultCase(seed int64) Case {
	return Case{Seed: seed, RootInstances: 8, Steps: 4, Queries: 6, Only: -1, CheckCosts: true, Persist: true, Service: true}
}

// ReplaySpec renders the case in the format DIFFTEST_REPLAY accepts.
// The persist field is three-valued: 0 disables the round trip, 1
// enables it with the auto-derived tiny budget, and a value > 1 pins
// the exact budget bytes a failing trial ran under.
func (c Case) ReplaySpec() string {
	persist := 0
	if c.Persist {
		persist = 1
		if c.PersistBudget > 1 {
			persist = int(c.PersistBudget)
		}
	}
	service := 0
	if c.Service {
		service = 1
	}
	return fmt.Sprintf("seed=%d,roots=%d,steps=%d,queries=%d,only=%d,persist=%d,service=%d",
		c.Seed, c.RootInstances, c.Steps, c.Queries, c.Only, persist, service)
}

// ParseReplay parses a ReplaySpec back into a Case.
func ParseReplay(s string) (Case, error) {
	c := DefaultCase(0)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return c, fmt.Errorf("difftest: bad replay component %q", kv)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return c, fmt.Errorf("difftest: bad replay value %q: %v", kv, err)
		}
		switch parts[0] {
		case "seed":
			c.Seed = v
		case "roots":
			c.RootInstances = int(v)
		case "steps":
			c.Steps = int(v)
		case "queries":
			c.Queries = int(v)
		case "only":
			c.Only = int(v)
		case "persist":
			c.Persist = v != 0
			if v > 1 {
				c.PersistBudget = v
			} else {
				c.PersistBudget = 0
			}
		case "service":
			c.Service = v != 0
		default:
			return c, fmt.Errorf("difftest: unknown replay key %q", parts[0])
		}
	}
	return c, nil
}

// Mismatch is a differential failure: the oracle and the pipeline
// disagree, or an invariant broke, at the given stage.
type Mismatch struct {
	Case     Case
	Stage    string
	QueryIdx int // -1 when not tied to one query
	Query    string
	Detail   string
}

func (m *Mismatch) Error() string {
	q := ""
	if m.Query != "" {
		q = fmt.Sprintf(" query %d %s", m.QueryIdx, m.Query)
	}
	return fmt.Sprintf("[%s] stage %s%s: %s", m.Case.ReplaySpec(), m.Stage, q, m.Detail)
}

// RunStats summarizes one trial.
type RunStats struct {
	// Queries is the workload size; Executed of them ran end to end,
	// and Skipped hit a mapping/grammar combination the translator cannot
	// express.
	Queries, Executed, Skipped int
	// Transforms counts successfully applied transformation steps.
	Transforms int
	// Tuned is 1 when the physical design came from physdesign.Tune.
	Tuned int
	// MaxCostRatio is the largest derived-vs-measured cost ratio seen.
	MaxCostRatio float64
}

// Add accumulates another trial's stats.
func (s *RunStats) Add(o RunStats) {
	s.Queries += o.Queries
	s.Executed += o.Executed
	s.Skipped += o.Skipped
	s.Transforms += o.Transforms
	s.Tuned += o.Tuned
	if o.MaxCostRatio > s.MaxCostRatio {
		s.MaxCostRatio = o.MaxCostRatio
	}
}

// mix derives an independent substream seed from the case seed (a
// splitmix64 step). Separate streams per generation phase keep
// shrinking prefix-stable: changing Steps or Only never shifts the
// schema, document, or workload randomness.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run executes one differential trial and reports the first mismatch,
// if any.
func Run(c Case) (RunStats, *Mismatch) {
	var st RunStats
	fail := func(stage string, qi int, query, format string, a ...any) *Mismatch {
		return &Mismatch{Case: c, Stage: stage, QueryIdx: qi, Query: query, Detail: fmt.Sprintf(format, a...)}
	}
	base := RandomSchema(rand.New(rand.NewSource(mix(c.Seed, 1))))
	doc, err := RandomDoc(base, rand.New(rand.NewSource(mix(c.Seed, 2))), c.RootInstances)
	if err != nil {
		return st, fail("document", -1, "", "%v", err)
	}
	queries, err := RandomWorkload(base, rand.New(rand.NewSource(mix(c.Seed, 3))), c.Queries)
	if err != nil {
		return st, fail("workload", -1, "", "%v", err)
	}
	st.Queries = len(queries)

	// Random transformation sequence, exactly as the advisor applies
	// them: enumerate applicable candidates, pick one, apply, repeat.
	col := xmlgen.CollectStats(base, doc)
	rt := rand.New(rand.NewSource(mix(c.Seed, 4)))
	tree := base.Clone()
	var applied []string
	for s := 0; s < c.Steps; s++ {
		cands := transform.EnumerateAll(tree, col)
		if len(cands) == 0 {
			break
		}
		tf := cands[rt.Intn(len(cands))]
		next, aerr := tf.Apply(tree)
		if aerr != nil {
			continue // combination not applicable under the current tree
		}
		applied = append(applied, tf.Key())
		tree = next
	}
	st.Transforms = len(applied)

	m, err := shred.Compile(tree)
	if err != nil {
		return st, fail("compile", -1, "", "%v (applied %v)", err, applied)
	}
	db, err := shred.Shred(m, doc)
	if err != nil {
		return st, fail("shred", -1, "", "%v (applied %v)", err, applied)
	}

	type tq struct {
		idx int
		q   *xpath.Query
		sql *sqlast.Query
	}
	var translated []tq
	for i, q := range queries {
		if c.Only >= 0 && i != c.Only {
			continue
		}
		sql, terr := translate.Translate(m, q)
		if terr != nil {
			// A shape the mapping legitimately cannot express is skipped,
			// and any other error is a failure. A query the translator
			// proves empty has zero branches and runs every stage below,
			// the compare stage checking it against the evaluator.
			var un *translate.Unsupported
			if !errors.As(terr, &un) {
				return st, fail("translate", i, q.String(), "%v (applied %v)", terr, applied)
			}
			st.Skipped++
			continue
		}
		translated = append(translated, tq{i, q, sql})
	}

	prov := stats.FromDatabase(db)
	rp := rand.New(rand.NewSource(mix(c.Seed, 5)))
	var cfg *physical.Config
	if len(translated) > 0 && rp.Intn(100) < 15 {
		// Tuner-chosen design under a random storage bound; doubles as
		// the storage-bound invariant check.
		var w physdesign.Workload
		for _, t := range translated {
			w = append(w, physdesign.WeightedQuery{Q: t.sql, Weight: float64(1 + rp.Intn(3)), Tag: t.q.String()})
		}
		bound := db.Bytes()/2 + int64(rp.Intn(4096))
		rec, rerr := physdesign.Tune(w, prov, physdesign.Options{
			StorageBytes:      bound,
			EnableVPartitions: rp.Intn(2) == 0,
		})
		if rerr != nil {
			return st, fail("tune", -1, "", "%v (applied %v)", rerr, applied)
		}
		if c.CheckCosts {
			if rec.StructBytes > bound {
				return st, fail("storage-bound", -1, "",
					"recommendation StructBytes %d exceeds bound %d", rec.StructBytes, bound)
			}
			if est := rec.Config.EstBytes(prov); est > bound {
				return st, fail("storage-bound", -1, "",
					"config EstBytes %d exceeds bound %d", est, bound)
			}
		}
		cfg = rec.Config
		st.Tuned = 1
	} else {
		cfg = RandomConfig(rp, db)
	}

	built, err := engine.Build(db, cfg)
	if err != nil {
		return st, fail("build", -1, "", "%v (config %v)", err, cfg)
	}

	// Persistence round trip: save the built store, reopen it, and hold
	// the reopened copy to the same bar as the executors — bit-identical
	// tables now, bit-identical results and identical plan costs per
	// query below.
	var reopened, paged *engine.Built
	var reopenedOpt *optimizer.Optimizer
	if c.Persist {
		// The reopened store runs under a deliberately tiny memory
		// budget (unless the replay spec pins one), with small chunks so
		// even modest trial databases page: the round trip then covers
		// chunk faulting, CLOCK eviction, and table reassembly, and the
		// budget lands in the replay spec of any failure.
		if c.PersistBudget <= 1 {
			c.PersistBudget = db.Bytes() / 3
			if c.PersistBudget < 4096 {
				c.PersistBudget = 4096
			}
		}
		dir, derr := os.MkdirTemp("", "difftest-store-")
		if derr != nil {
			return st, fail("persistence-round-trip", -1, "", "scratch dir: %v", derr)
		}
		defer os.RemoveAll(dir)
		if _, serr := storage.Save(dir, built, storage.Options{ChunkRows: 64}); serr != nil {
			return st, fail("persistence-round-trip", -1, "", "save: %v (config %v)", serr, cfg)
		}
		store, oerr := storage.Open(dir, storage.Options{MemBudgetBytes: c.PersistBudget, ChunkRows: 64})
		if oerr != nil {
			return st, fail("persistence-round-trip", -1, "", "open: %v", oerr)
		}
		reopened, err = store.Built()
		if err != nil {
			return st, fail("persistence-round-trip", -1, "", "rebuild: %v (config %v)", err, cfg)
		}
		if reopened.StructBytes != built.StructBytes {
			return st, fail("persistence-round-trip", -1, "",
				"reopened StructBytes %d, original %d", reopened.StructBytes, built.StructBytes)
		}
		for _, tb := range db.Tables() {
			if d := diffTables(tb, reopened.DB.Table(tb.Name)); d != "" {
				return st, fail("persistence-round-trip", -1, "", "table %s: %s", tb.Name, d)
			}
		}
		reopenedOpt = optimizer.New(stats.FromDatabase(reopened.DB))
		// Paged view of the same store: driver-stage scans pull chunks
		// through the pager under the trial's tiny budget instead of
		// reading assembled tables. Executed differentially below.
		paged, err = store.PagedBuilt()
		if err != nil {
			return st, fail("chunk-scan-equivalence", -1, "", "paged rebuild: %v (config %v)", err, cfg)
		}
	}
	// Every trial also exercises the tracing layer: executor spans are
	// recorded for each batch execution and the tree must stay
	// well-formed no matter which plans, caches, and branch shapes the
	// trial hits.
	tracer := obs.New()
	built.AttachObs(tracer, nil)
	opt := optimizer.New(prov)
	var optDerived *optimizer.Optimizer
	if c.CheckCosts {
		optDerived = optimizer.New(shred.DeriveStats(m, col))
	}
	// Worker count for the parallel-executor differential: seeded from
	// its own stream so replays are deterministic, drawn from {2..7}
	// rather than NumCPU so a trial reproduces identically across
	// machines.
	wrand := rand.New(rand.NewSource(mix(c.Seed, 6)))
	// Fully validated queries and their reference results, kept for the
	// service-equivalence stage below.
	type svcQuery struct {
		idx   int
		query string
		ref   *engine.Result
	}
	var svcQueries []svcQuery
	for _, t := range translated {
		plan, perr := opt.PlanQuery(t.sql, cfg)
		if perr != nil {
			return st, fail("plan", t.idx, t.q.String(), "%v\nSQL:\n%s", perr, t.sql.SQL())
		}
		res, xerr := engine.Execute(built, plan)
		if xerr != nil {
			return st, fail("execute", t.idx, t.q.String(), "%v\nSQL:\n%s", xerr, t.sql.SQL())
		}
		// Executor differential: the pipelined batch executor must be
		// bit-identical — rows, order, and stats — to the row-at-a-time
		// reference path.
		ref, rerr := engine.ExecuteReference(built, plan)
		if rerr != nil {
			return st, fail("execute-reference", t.idx, t.q.String(), "%v\nSQL:\n%s", rerr, t.sql.SQL())
		}
		if d := diffResults(res, ref); d != "" {
			return st, fail("executor-equivalence", t.idx, t.q.String(), "%s (applied %v)\nSQL:\n%s", d, applied, t.sql.SQL())
		}
		// Parallel-executor differential: the same plan through the
		// morsel-driven worker pool must also be bit-identical to the
		// reference, at a seeded random worker count.
		wk := 2 + wrand.Intn(6)
		pp, perr2 := built.Prepared(plan)
		if perr2 != nil {
			return st, fail("prepare", t.idx, t.q.String(), "%v\nSQL:\n%s", perr2, t.sql.SQL())
		}
		par, xerr2 := pp.ExecuteContextWorkers(context.Background(), wk)
		if xerr2 != nil {
			return st, fail("execute-parallel", t.idx, t.q.String(), "workers=%d: %v\nSQL:\n%s", wk, xerr2, t.sql.SQL())
		}
		if d := diffResults(par, ref); d != "" {
			return st, fail("executor-parallel-equivalence", t.idx, t.q.String(),
				"workers=%d: %s (applied %v)\nSQL:\n%s", wk, d, applied, t.sql.SQL())
		}
		// Persistence differential: the reopened store must plan at the
		// exact same cost (its statistics come from bit-identical
		// tables) and execute to bit-identical results.
		if reopened != nil {
			rplan, rperr := reopenedOpt.PlanQuery(t.sql, cfg)
			if rperr != nil {
				return st, fail("persistence-round-trip", t.idx, t.q.String(), "replan: %v\nSQL:\n%s", rperr, t.sql.SQL())
			}
			if rplan.Cost != plan.Cost {
				return st, fail("persistence-round-trip", t.idx, t.q.String(),
					"reopened plan cost %v, original %v (applied %v)\nSQL:\n%s", rplan.Cost, plan.Cost, applied, t.sql.SQL())
			}
			rres, rxerr := engine.Execute(reopened, rplan)
			if rxerr != nil {
				return st, fail("persistence-round-trip", t.idx, t.q.String(), "execute: %v\nSQL:\n%s", rxerr, t.sql.SQL())
			}
			if d := diffResults(rres, ref); d != "" {
				return st, fail("persistence-round-trip", t.idx, t.q.String(),
					"%s (applied %v)\nSQL:\n%s", d, applied, t.sql.SQL())
			}
			// Chunk-scan differential: the same plan through the paged
			// Built — scans faulting, filtering, and releasing one pager
			// chunk at a time — must be bit-identical to the reference
			// executor on the same Built (which must itself agree with the
			// resident reference), at one worker and at the seeded worker
			// count.
			chunkFail := func(format string, args ...any) *Mismatch {
				return fail("chunk-scan-equivalence", t.idx, t.q.String(),
					format+"\nSQL:\n%s", append(args, t.sql.SQL())...)
			}
			pref, prerr := engine.ExecuteReference(paged, rplan)
			if prerr != nil {
				return st, chunkFail("reference: %v", prerr)
			}
			if d := diffResults(pref, ref); d != "" {
				return st, chunkFail("paged reference vs resident reference: %s (applied %v)", d, applied)
			}
			pres, pxerr := engine.Execute(paged, rplan)
			if pxerr != nil {
				return st, chunkFail("execute: %v", pxerr)
			}
			if d := diffResults(pres, pref); d != "" {
				return st, chunkFail("%s (applied %v)", d, applied)
			}
			ppaged, pperr := paged.Prepared(rplan)
			if pperr != nil {
				return st, chunkFail("prepare: %v", pperr)
			}
			ppar, pxerr2 := ppaged.ExecuteContextWorkers(context.Background(), wk)
			if pxerr2 != nil {
				return st, chunkFail("workers=%d: %v", wk, pxerr2)
			}
			if d := diffResults(ppar, pref); d != "" {
				return st, chunkFail("workers=%d: %s (applied %v)", wk, d, applied)
			}
		}
		gold, gerr := xmlgen.Evaluate(base, doc, t.q)
		if gerr != nil {
			return st, fail("evaluate", t.idx, t.q.String(), "%v", gerr)
		}
		got := dropEmpty(normalizeSQL(res))
		want := dropEmpty(normalizeGold(gold, t.q.Proj, bareNames(base, t.q)))
		if d := diffGroups(got, want); d != "" {
			return st, fail("compare", t.idx, t.q.String(), "%s (applied %v)\nSQL:\n%s", d, applied, t.sql.SQL())
		}
		st.Executed++
		if c.CheckCosts {
			if cerr := checkCosts(&st, optDerived, t.sql, cfg, plan); cerr != "" {
				return st, fail("cost", t.idx, t.q.String(), "%s (applied %v)", cerr, applied)
			}
		}
		svcQueries = append(svcQueries, svcQuery{idx: t.idx, query: t.q.String(), ref: ref})
	}
	// Service-equivalence stage: the same workload through an in-process
	// multi-tenant service — concurrent sessions, seeded random quotas,
	// pool size, and per-session worker asks — over the trial's Built with
	// its warm caches as one corpus. Each session asks every query twice:
	// through Service.Query and through service.Client against the
	// service's HTTP handler on a loopback test server, whose rows the
	// engine writes as wire bytes. Every response must be bit-identical
	// (rows, order, values, stats) to the direct reference execution, and
	// the service's plan cache must have translated each query text
	// exactly once across all sessions and both legs.
	if c.Service && len(svcQueries) > 0 {
		srand := rand.New(rand.NewSource(mix(c.Seed, 7)))
		sessions := 2 + srand.Intn(3)
		sreg := obs.NewRegistry()
		maxConc := 1 + srand.Intn(3)
		svc := service.New(service.Config{
			Registry:           sreg,
			PoolWorkers:        1 + srand.Intn(4),
			MaxWorkersPerQuery: 1 + srand.Intn(4),
			DefaultQuota: service.TenantQuota{
				MaxConcurrent: maxConc,
				// Deep enough that no request is ever rejected: the stage
				// checks equivalence under queueing, not overload.
				MaxQueued: 2 * sessions * len(svcQueries),
			},
		})
		const corpus = "trial"
		if rerr := svc.RegisterBuilt(corpus, built, m, nil); rerr != nil {
			return st, fail("service-equivalence", -1, "", "register %s: %v", corpus, rerr)
		}
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		legs := []struct {
			name  string
			query func(context.Context, service.Request) (*service.Response, error)
		}{
			{"in-process", svc.Query},
			{"http", service.NewClient(srv.URL, nil).Query},
		}
		asks := make([]int, sessions)
		for i := range asks {
			asks[i] = 1 + srand.Intn(4)
		}
		// One worker per session, so the sessions run concurrently; the
		// lowest failing session's mismatch is reported.
		if err := par.Do(sessions, sessions, func(s int) error {
			tenant := fmt.Sprintf("tenant-%d", s%2)
			for _, sq := range svcQueries {
				req := service.Request{Corpus: corpus, Tenant: tenant, XPath: sq.query, Workers: asks[s]}
				for _, leg := range legs {
					resp, qerr := leg.query(context.Background(), req)
					if qerr != nil {
						return fail("service-equivalence", sq.idx, sq.query,
							"session %d %s: %v (applied %v)", s, leg.name, qerr, applied)
					}
					got := &engine.Result{Cols: resp.Cols, Rows: resp.Rows, Stats: resp.Stats}
					if d := diffResults(got, sq.ref); d != "" {
						return fail("service-equivalence", sq.idx, sq.query,
							"session %d %s workers %d: %s (applied %v)", s, leg.name, asks[s], d, applied)
					}
				}
			}
			return nil
		}); err != nil {
			return st, err.(*Mismatch)
		}
		distinct := make(map[string]bool, len(svcQueries))
		for _, sq := range svcQueries {
			distinct[sq.query] = true
		}
		snap := sreg.Snapshot()
		if got, want := snap["service.plan.misses"], float64(len(distinct)); got != want {
			return st, fail("service-equivalence", -1, "",
				"plan cache misses %v across %d sessions, want %v distinct texts (single-flight broken)",
				got, sessions, want)
		}
		for _, tenant := range []string{"tenant-0", "tenant-1"} {
			if peak := snap["service.tenant."+tenant+".inflight_peak"]; peak > float64(maxConc) {
				return st, fail("service-equivalence", -1, "",
					"%s inflight peak %v exceeds quota %d", tenant, peak, maxConc)
			}
		}
	}
	if err := tracer.Validate(); err != nil {
		return st, fail("obs-wellformed", -1, "", "%v (applied %v)", err, applied)
	}
	if st.Executed > 0 {
		if got := len(tracer.FindAll("executor.execute")); got < st.Executed {
			return st, fail("obs-wellformed", -1, "",
				"%d queries executed but only %d executor.execute spans recorded", st.Executed, got)
		}
	}
	return st, nil
}

// diffResults compares two executor results for exact equality: column
// names, row count, every value bit for bit (Value.BitEqual, so NaN
// equals NaN and -0.0 differs from +0.0 — Go's struct equality would
// reject identical NaNs), and ExecStats counters.
func diffResults(got, want *engine.Result) string {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("batch executor returned %d cols, reference %d", len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			return fmt.Sprintf("col %d is %q, reference %q", i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("batch executor returned %d rows, reference %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Sprintf("row %d has %d values, reference %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if !got.Rows[i][j].BitEqual(want.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d is %v, reference %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	if got.Stats != want.Stats {
		return fmt.Sprintf("stats %+v, reference %+v", got.Stats, want.Stats)
	}
	return ""
}

// diffTables compares a reopened table against the original down to
// the bit level: schema, row count, byte accounting, and
// every value under Value.BitEqual.
func diffTables(want, got *rel.Table) string {
	if got == nil {
		return "missing after reopen"
	}
	if got.Name != want.Name || got.Parent != want.Parent {
		return fmt.Sprintf("identity %q/%q, original %q/%q", got.Name, got.Parent, want.Name, want.Parent)
	}
	if len(got.Columns) != len(want.Columns) {
		return fmt.Sprintf("%d columns, original %d", len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Sprintf("column %d is %+v, original %+v", i, got.Columns[i], want.Columns[i])
		}
	}
	if got.RowCount() != want.RowCount() {
		return fmt.Sprintf("%d rows, original %d", got.RowCount(), want.RowCount())
	}
	if got.Bytes() != want.Bytes() || got.Pages() != want.Pages() {
		return fmt.Sprintf("accounting %d bytes/%d pages, original %d/%d",
			got.Bytes(), got.Pages(), want.Bytes(), want.Pages())
	}
	for r := 0; r < want.RowCount(); r++ {
		for ci := range want.Columns {
			if gv, wv := got.ValueAt(r, ci), want.ValueAt(r, ci); !gv.BitEqual(wv) {
				return fmt.Sprintf("value (%d,%d) is %v, original %v", r, ci, gv, wv)
			}
		}
	}
	return ""
}

func diffGroups(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d groups, want %d\n got: %s\nwant: %s",
			len(got), len(want), strings.Join(got, " || "), strings.Join(want, " || "))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("group %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	return ""
}

// Cost-model invariant bounds. The derived cost comes from document
// statistics pushed through the mapping (shred.DeriveStats); the
// measured cost from scanning the loaded database. They estimate the
// same plans with different inputs, so they must stay within a fixed
// factor once a small epsilon absorbs the constant terms of near-empty
// tables.
const (
	costEpsilon  = 8.0
	costMaxRatio = 64.0
)

func checkCosts(st *RunStats, derived *optimizer.Optimizer, sql *sqlast.Query,
	cfg *physical.Config, plan *optimizer.Plan) string {
	if len(sql.Branches) == 0 {
		if plan.Cost != 0 {
			return fmt.Sprintf("a query of zero branches costs %v, want 0", plan.Cost)
		}
		return ""
	}
	if math.IsNaN(plan.Cost) || math.IsInf(plan.Cost, 0) || plan.Cost <= 0 {
		return fmt.Sprintf("measured plan cost %v is not finite and positive", plan.Cost)
	}
	dcost, err := derived.Cost(sql, cfg)
	if err != nil {
		return fmt.Sprintf("derived-stats costing failed: %v", err)
	}
	if math.IsNaN(dcost) || math.IsInf(dcost, 0) || dcost < 0 {
		return fmt.Sprintf("derived plan cost %v is not finite", dcost)
	}
	ratio := (dcost + costEpsilon) / (plan.Cost + costEpsilon)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > st.MaxCostRatio {
		st.MaxCostRatio = ratio
	}
	if ratio > costMaxRatio {
		return fmt.Sprintf("derived cost %.1f vs measured %.1f: ratio %.1f exceeds %g",
			dcost, plan.Cost, ratio, costMaxRatio)
	}
	return ""
}
