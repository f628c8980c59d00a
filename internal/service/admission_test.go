package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// Admission-control properties: quotas are never exceeded (peaks
// asserted from the obs gauges, not internal fields), queued requests
// drain FIFO per tenant, and overload rejections are a deterministic
// function of the arrival schedule.

func TestQuotasNeverExceeded(t *testing.T) {
	m, db, built := movieFixture(t, 150)
	want := refResults(t, m, db, serviceQueries)
	reg := obs.NewRegistry()
	svc := New(Config{
		Registry:    reg,
		PoolWorkers: 3,
		DefaultQuota: TenantQuota{
			MaxConcurrent: 2,
			MaxQueued:     256, // no rejections: every request eventually runs
			MemBytes:      3 << 20,
		},
	})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}

	const sessions, rounds = 12, 4
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", s%2)
			for r := 0; r < rounds; r++ {
				for i, qs := range serviceQueries {
					resp, err := svc.Query(context.Background(), Request{
						Corpus: "movie", Tenant: tenant, XPath: qs,
						Workers: 1 + (s+r)%4, MemEstimate: 1 << 20,
					})
					if err != nil {
						errs <- fmt.Errorf("session %d: %w", s, err)
						return
					}
					if d := diffResponse(resp, want[i]); d != "" {
						errs <- fmt.Errorf("session %d %s: %s", s, qs, d)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A single-hardware-thread runner can drain the whole battery
	// without two queries ever overlapping, so the peak-reaches-cap
	// check cannot rely on scheduler luck: hold one slot white-box and
	// run a real query beside it — inflight is deterministically 2
	// while it executes.
	for _, tenant := range []string{"t0", "t1"} {
		tnt := svc.tenant(tenant)
		tnt.mu.Lock()
		tnt.admitLocked(1 << 20)
		tnt.mu.Unlock()
		if _, err := svc.Query(context.Background(), Request{
			Corpus: "movie", Tenant: tenant, XPath: serviceQueries[0], MemEstimate: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
		tnt.release(1 << 20)
	}

	snap := reg.Snapshot()
	for _, tenant := range []string{"t0", "t1"} {
		p := "service.tenant." + tenant + "."
		if peak := snap[p+"inflight_peak"]; peak > 2 {
			t.Errorf("%s inflight peak %v exceeds MaxConcurrent 2", tenant, peak)
		}
		if peak := snap[p+"mem_bytes_peak"]; peak > float64(3<<20) {
			t.Errorf("%s mem peak %v exceeds MemBytes quota", tenant, peak)
		}
		if snap[p+"inflight"] != 0 || snap[p+"mem_bytes"] != 0 || snap[p+"queued"] != 0 {
			t.Errorf("%s gauges nonzero after drain: inflight=%v mem=%v queued=%v",
				tenant, snap[p+"inflight"], snap[p+"mem_bytes"], snap[p+"queued"])
		}
		// The forced overlap above guarantees two in-flight requests
		// happened at least once; the peak must record it.
		if peak := snap[p+"inflight_peak"]; peak != 2 {
			t.Errorf("%s inflight peak %v never reached MaxConcurrent 2 — no contention exercised", tenant, peak)
		}
	}
	if peak := snap["service.pool.busy_peak"]; peak > 3 {
		t.Errorf("pool busy peak %v exceeds capacity 3", peak)
	}
	if snap["service.pool.busy"] != 0 {
		t.Errorf("pool busy = %v after drain, want 0", snap["service.pool.busy"])
	}
	if snap["service.rejected"] != 0 {
		t.Errorf("rejections with an effectively unbounded queue: %v", snap["service.rejected"])
	}
	// Battery queries plus the two forced-overlap probes.
	if want := sessions*rounds*len(serviceQueries) + 2; snap["service.admitted"] != float64(want) {
		t.Errorf("admitted = %v, want %d", snap["service.admitted"], want)
	}
}

func TestFIFODrainPerTenant(t *testing.T) {
	reg := obs.NewRegistry()
	tn := newTenant("fifo", TenantQuota{MaxConcurrent: 1, MaxQueued: 16}, reg)

	// Occupy the single slot, then enqueue five waiters with distinct
	// memory charges (including one that would fit out of order).
	tn.mu.Lock()
	if !tn.tryAdmitLocked(10) {
		t.Fatal("first admit failed")
	}
	var ws []*waiter
	for i := 0; i < 5; i++ {
		w, ok := tn.enqueueLocked(int64(10 - i))
		if !ok {
			t.Fatalf("enqueue %d rejected", i)
		}
		ws = append(ws, w)
	}
	tn.mu.Unlock()

	// Releases must grant strictly in arrival order.
	for i := range ws {
		tn.release(10 - int64(i-1)*1) // release previous holder's charge
		granted := -1
		for j, w := range ws {
			select {
			case <-w.ready:
				if w.granted && j > granted {
					granted = j
				}
			default:
			}
		}
		if granted != i {
			t.Fatalf("after release %d: highest granted waiter is %d, want exactly %d (FIFO)", i, granted, i)
		}
		for j := i + 1; j < len(ws); j++ {
			select {
			case <-ws[j].ready:
				t.Fatalf("waiter %d granted before waiter %d: overtaking", j, i)
			default:
			}
		}
	}
}

func TestFIFOHeadOfLineHoldsBack(t *testing.T) {
	reg := obs.NewRegistry()
	tn := newTenant("hol", TenantQuota{MaxConcurrent: 4, MaxQueued: 16, MemBytes: 100}, reg)

	tn.mu.Lock()
	if !tn.tryAdmitLocked(60) {
		t.Fatal("first admit failed")
	}
	// Head wants 80 (doesn't fit beside 60); a later 10 would fit but
	// must not overtake.
	big, _ := tn.enqueueLocked(80)
	small, _ := tn.enqueueLocked(10)
	tn.drainLocked()
	tn.mu.Unlock()
	select {
	case <-small.ready:
		t.Fatal("small request overtook the blocked head of line")
	default:
	}
	select {
	case <-big.ready:
		t.Fatal("head granted while memory quota lacks room")
	default:
	}

	tn.release(60) // now 80 fits alone, then 10 beside it
	if !big.granted {
		t.Fatal("head not granted after release")
	}
	if !small.granted {
		t.Fatal("small not granted after head admitted (80+10 <= 100 is false — expected grant when head ran alone)")
	}
	if in, mem := tn.Peaks(); in > 4 || mem > 100 {
		t.Fatalf("peaks inflight=%d mem=%d exceed quota", in, mem)
	}
}

func TestOversizedRequestRunsAlone(t *testing.T) {
	tn := newTenant("big", TenantQuota{MaxConcurrent: 4, MaxQueued: 4, MemBytes: 100}, nil)
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.admitLocked(50)
	if tn.canRunLocked(150) {
		t.Fatal("oversized request admitted beside live work")
	}
	tn.releaseLocked(50)
	if !tn.canRunLocked(150) {
		t.Fatal("oversized request starved with the tenant idle")
	}
	tn.admitLocked(150)
	if tn.canRunLocked(1) {
		t.Fatal("request admitted beside an oversized one")
	}
}

// admissionEvent is one step of a seeded schedule: submit a request
// with a memory charge, or finish the oldest admitted one.
type admissionEvent struct {
	submit bool
	mem    int64
}

// runSchedule feeds the events through the deterministic locked core
// and records each decision: A=admit, Q=queue, R=reject, F=finish,
// D=drain-grant (with waiter seq).
func runSchedule(q TenantQuota, events []admissionEvent) string {
	tn := newTenant("sched", q, nil)
	var decisions []byte
	var admitted []int64 // memory charges of running requests, oldest first
	var queued []*waiter
	tn.mu.Lock()
	defer tn.mu.Unlock()
	for _, ev := range events {
		if ev.submit {
			switch {
			case tn.tryAdmitLocked(ev.mem):
				admitted = append(admitted, ev.mem)
				decisions = append(decisions, 'A')
			default:
				if w, ok := tn.enqueueLocked(ev.mem); ok {
					queued = append(queued, w)
					decisions = append(decisions, 'Q')
				} else {
					decisions = append(decisions, 'R')
				}
			}
		} else if len(admitted) > 0 {
			tn.releaseLocked(admitted[0])
			admitted = admitted[1:]
			decisions = append(decisions, 'F')
			// Collect any waiters the drain granted, in order.
			for len(queued) > 0 && queued[0].granted {
				admitted = append(admitted, queued[0].mem)
				decisions = append(decisions, 'D')
				queued = queued[1:]
			}
		}
	}
	return string(decisions)
}

func TestOverloadRejectionsDeterministic(t *testing.T) {
	quota := TenantQuota{MaxConcurrent: 2, MaxQueued: 2, MemBytes: 64}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := make([]admissionEvent, 60)
		for i := range events {
			events[i] = admissionEvent{
				submit: rng.Intn(100) < 60,
				mem:    int64(8 << rng.Intn(3)), // 8, 16, or 32
			}
		}
		first := runSchedule(quota, events)
		for rerun := 0; rerun < 3; rerun++ {
			if got := runSchedule(quota, events); got != first {
				t.Fatalf("seed %d rerun %d: decisions %q, first run %q — overload behavior is nondeterministic",
					seed, rerun, got, first)
			}
		}
		// Structural invariants of any decision string: rejects only
		// happen while the queue is full, and grants never exceed quota.
		inflight, queueLen, rejects := 0, 0, 0
		for i, d := range first {
			switch d {
			case 'A':
				inflight++
			case 'Q':
				queueLen++
			case 'R':
				rejects++
				if queueLen != quota.MaxQueued {
					t.Fatalf("seed %d: reject at step %d with queue %d/%d — must only reject when full (%q)",
						seed, i, queueLen, quota.MaxQueued, first)
				}
			case 'F':
				inflight--
			case 'D':
				inflight++
				queueLen--
			}
			if inflight > quota.MaxConcurrent {
				t.Fatalf("seed %d: inflight %d exceeds quota at step %d (%q)", seed, inflight, i, first)
			}
			if queueLen > quota.MaxQueued {
				t.Fatalf("seed %d: queue %d exceeds quota at step %d (%q)", seed, queueLen, i, first)
			}
		}
		if seed == 1 && rejects == 0 {
			t.Logf("seed 1 produced no rejections; schedule may be too gentle: %q", first)
		}
	}
}

func TestWorkerPoolGrants(t *testing.T) {
	reg := obs.NewRegistry()
	p := newWorkerPool(3, reg)
	if got := p.acquire(4); got != 3 {
		t.Fatalf("first acquire got %d extra, want 3", got)
	}
	if got := p.acquire(4); got != 0 {
		t.Fatalf("saturated acquire got %d extra, want 0 (must not block)", got)
	}
	p.release(3)
	if got := p.acquire(2); got != 1 {
		t.Fatalf("post-release acquire got %d extra, want 1", got)
	}
	p.release(1)
	if p.Peak() != 3 {
		t.Errorf("peak = %d, want 3", p.Peak())
	}
	snap := reg.Snapshot()
	if snap["service.pool.capacity"] != 3 || snap["service.pool.busy"] != 0 || snap["service.pool.busy_peak"] != 3 {
		t.Errorf("pool gauges = %v", snap)
	}
	// One-worker requests never take pool slots; a zero-capacity pool
	// degrades everything to one worker.
	if got := p.acquire(1); got != 0 {
		t.Errorf("want=1 acquired %d extra", got)
	}
	z := newWorkerPool(0, nil)
	if got := z.acquire(8); got != 0 {
		t.Errorf("zero-capacity pool granted %d", got)
	}
}

// heldSource serves a resident table as one chunk and counts, across
// every table of its corpus, the chunks held at once: each goroutine
// scanning holds one, so the peak is the number of goroutines the query
// ran on.
type heldSource struct {
	t         *rel.Table
	held, max *atomic.Int64
}

func (s heldSource) Columns() []rel.Column    { return s.t.Columns }
func (s heldSource) RowCount() int            { return s.t.RowCount() }
func (s heldSource) NumChunks() int           { return 1 }
func (s heldSource) ChunkSpan(int) (int, int) { return 0, s.t.RowCount() }
func (s heldSource) Chunk(k int) (*rel.Table, func(), error) {
	return s.ChunkColumns(k, nil)
}
func (s heldSource) ChunkColumns(int, []int) (*rel.Table, func(), error) {
	h := s.held.Add(1)
	for m := s.max.Load(); h > m && !s.max.CompareAndSwap(m, h); m = s.max.Load() {
	}
	return s.t, func() { s.held.Add(-1) }, nil
}

// TestGrantIsTheConcurrency pins what Response.Workers means: the number
// of goroutines the query ran on. A four-branch union asked for four
// workers gets one from a zero-capacity pool and then scans one branch
// at a time; with three pool slots it gets four and holds at most four
// chunks.
func TestGrantIsTheConcurrency(t *testing.T) {
	const query = `//movie/(title | aka_title | director | actor)`
	m, db, _ := movieFixture(t, 2000)
	want := refResults(t, m, db, []string{query})[0]
	for _, tc := range []struct {
		poolWorkers, granted, poolPeak int
	}{
		{poolWorkers: -1, granted: 1, poolPeak: 0},
		{poolWorkers: 3, granted: 4, poolPeak: 3},
	} {
		_, db, built := movieFixture(t, 2000)
		var held, peak atomic.Int64
		for _, tbl := range db.Tables() {
			built.SetScanSource(tbl.Name, heldSource{t: tbl, held: &held, max: &peak})
		}
		svc := New(Config{PoolWorkers: tc.poolWorkers})
		if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 5; run++ {
			resp, err := svc.Query(context.Background(), Request{Corpus: "movie", Tenant: "t0", XPath: query, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, query, resp, want)
			if resp.Stats.Branches != 4 {
				t.Fatalf("fixture query has %d branches, want 4", resp.Stats.Branches)
			}
			if resp.Workers != tc.granted {
				t.Fatalf("PoolWorkers %d: granted %d workers, want %d", tc.poolWorkers, resp.Workers, tc.granted)
			}
		}
		if p := peak.Load(); p < 1 || p > int64(tc.granted) {
			t.Errorf("PoolWorkers %d: %d chunks held at once on %d granted workers", tc.poolWorkers, p, tc.granted)
		}
		if held.Load() != 0 {
			t.Errorf("PoolWorkers %d: %d chunks still held", tc.poolWorkers, held.Load())
		}
		if svc.PoolPeak() != tc.poolPeak {
			t.Errorf("PoolWorkers %d: pool peak %d, want %d", tc.poolWorkers, svc.PoolPeak(), tc.poolPeak)
		}
	}
}
