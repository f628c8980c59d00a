package service

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// TenantQuota bounds one tenant's footprint on the service. Zero
// values take the service defaults (see Config.DefaultQuota and the
// defaultQuota fallbacks).
type TenantQuota struct {
	// MaxConcurrent caps the tenant's in-flight (admitted, executing)
	// queries. Further requests queue.
	MaxConcurrent int
	// MaxQueued caps the tenant's wait queue; a request arriving with
	// the queue full fails fast with ErrOverloaded instead of piling
	// latency onto an already overloaded tenant.
	MaxQueued int
	// MemBytes caps the sum of in-flight memory reservations (each
	// request charges its MemEstimate). 0 = unlimited. A single request
	// whose estimate alone exceeds the cap is not rejected forever: it
	// is admitted when it is at the head of the queue and nothing else
	// is in flight, so it runs alone.
	MemBytes int64
}

// withDefaults fills zero fields from the fallback quota.
func (q TenantQuota) withDefaults(d TenantQuota) TenantQuota {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = d.MaxConcurrent
	}
	if q.MaxQueued <= 0 {
		q.MaxQueued = d.MaxQueued
	}
	if q.MemBytes <= 0 {
		q.MemBytes = d.MemBytes
	}
	return q
}

// waiter is one queued admission request. ready is closed exactly once,
// under the tenant lock, when the drain loop grants the slot; gone
// marks a waiter abandoned by its deadline so the drain skips it.
type waiter struct {
	mem     int64
	ready   chan struct{}
	granted bool
	gone    bool
	seq     uint64 // arrival order, for FIFO verification in tests
}

// tenant is one tenant's admission state: a counting quota plus a FIFO
// wait queue. All transitions happen under mu; the obs gauges mirror
// the state at every transition so external observers (the debug
// endpoints, the property tests) see quota enforcement, not inference.
//
// The blocking acquire/release pair wraps a non-blocking deterministic
// core (tryAdmitLocked / enqueueLocked / drainLocked): given the same
// sequence of submit and finish events the same requests are admitted,
// queued, and rejected, which is what makes overload behavior testable
// under a seeded schedule.
type tenant struct {
	name  string
	quota TenantQuota

	mu       sync.Mutex
	inflight int
	memUsed  int64
	queue    []*waiter
	nextSeq  uint64

	// Peaks are high-water marks over the tenant's lifetime; the
	// admission property tests assert they never exceed the quota.
	peakInflight int
	peakMem      int64

	gInflight, gQueued, gMem             *obs.Gauge
	gPeakInflight, gPeakMem              *obs.Gauge
	admitted, rejected, timedout, errors *obs.Counter
}

func newTenant(name string, q TenantQuota, reg *obs.Registry) *tenant {
	p := "service.tenant." + name + "."
	return &tenant{
		name:          name,
		quota:         q,
		gInflight:     reg.Gauge(p + "inflight"),
		gQueued:       reg.Gauge(p + "queued"),
		gMem:          reg.Gauge(p + "mem_bytes"),
		gPeakInflight: reg.Gauge(p + "inflight_peak"),
		gPeakMem:      reg.Gauge(p + "mem_bytes_peak"),
		admitted:      reg.Counter(p + "admitted"),
		rejected:      reg.Counter(p + "rejected"),
		timedout:      reg.Counter(p + "timedout"),
		errors:        reg.Counter(p + "errors"),
	}
}

// canRunLocked reports whether a request charging mem bytes may start
// now. An oversized request (mem alone exceeds the budget) may only
// run alone, so it neither starves forever nor stacks on live work.
func (t *tenant) canRunLocked(mem int64) bool {
	if t.inflight >= t.quota.MaxConcurrent {
		return false
	}
	if t.quota.MemBytes <= 0 {
		return true
	}
	if mem > t.quota.MemBytes {
		return t.inflight == 0
	}
	return t.memUsed+mem <= t.quota.MemBytes
}

func (t *tenant) admitLocked(mem int64) {
	t.inflight++
	t.memUsed += mem
	if t.inflight > t.peakInflight {
		t.peakInflight = t.inflight
		t.gPeakInflight.Set(float64(t.peakInflight))
	}
	if t.memUsed > t.peakMem {
		t.peakMem = t.memUsed
		t.gPeakMem.Set(float64(t.peakMem))
	}
	t.gInflight.Set(float64(t.inflight))
	t.gMem.Set(float64(t.memUsed))
	t.admitted.Inc()
}

// tryAdmitLocked admits immediately when the queue is empty (FIFO:
// nobody waiting may be overtaken) and the quota has room.
func (t *tenant) tryAdmitLocked(mem int64) bool {
	if len(t.queue) > 0 || !t.canRunLocked(mem) {
		return false
	}
	t.admitLocked(mem)
	return true
}

// enqueueLocked appends a waiter, or reports overload when the queue
// is full.
func (t *tenant) enqueueLocked(mem int64) (*waiter, bool) {
	if len(t.queue) >= t.quota.MaxQueued {
		t.rejected.Inc()
		return nil, false
	}
	w := &waiter{mem: mem, ready: make(chan struct{}), seq: t.nextSeq}
	t.nextSeq++
	t.queue = append(t.queue, w)
	t.gQueued.Set(float64(t.liveQueuedLocked()))
	return w, true
}

// liveQueuedLocked counts waiters that have not been abandoned.
func (t *tenant) liveQueuedLocked() int {
	n := 0
	for _, w := range t.queue {
		if !w.gone {
			n++
		}
	}
	return n
}

// drainLocked grants queued waiters strictly in arrival order while the
// quota has room. The head blocks the line even when a later, smaller
// request would fit — per-tenant admission is FIFO, not best-fit — so a
// heavy request cannot be starved by a stream of light ones.
func (t *tenant) drainLocked() {
	for len(t.queue) > 0 {
		w := t.queue[0]
		if w.gone {
			t.queue = t.queue[1:]
			continue
		}
		if !t.canRunLocked(w.mem) {
			break
		}
		t.admitLocked(w.mem)
		w.granted = true
		close(w.ready)
		t.queue = t.queue[1:]
	}
	t.gQueued.Set(float64(t.liveQueuedLocked()))
}

// releaseLocked returns an admitted request's quota and wakes waiters.
func (t *tenant) releaseLocked(mem int64) {
	t.inflight--
	t.memUsed -= mem
	t.gInflight.Set(float64(t.inflight))
	t.gMem.Set(float64(t.memUsed))
	t.drainLocked()
}

// acquire blocks until the request is admitted, its context expires, or
// the tenant queue is full. It returns nil on admission; the caller
// must release(mem) when the query finishes.
func (t *tenant) acquire(ctx context.Context, mem int64, queueDepth *obs.Gauge) error {
	t.mu.Lock()
	if t.tryAdmitLocked(mem) {
		t.mu.Unlock()
		return nil
	}
	w, ok := t.enqueueLocked(mem)
	if !ok {
		t.mu.Unlock()
		return ErrOverloaded
	}
	queueDepth.Add(1)
	t.mu.Unlock()
	defer queueDepth.Add(-1)

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		if w.granted {
			// The grant raced the deadline: the slot is ours, but the
			// request is already dead. Hand the slot straight back.
			t.releaseLocked(mem)
			t.mu.Unlock()
		} else {
			w.gone = true
			t.gQueued.Set(float64(t.liveQueuedLocked()))
			t.mu.Unlock()
		}
		return wrapDeadline("queued", ctx.Err())
	}
}

func (t *tenant) release(mem int64) {
	t.mu.Lock()
	t.releaseLocked(mem)
	t.mu.Unlock()
}

// Peaks returns the tenant's lifetime high-water marks (in-flight
// queries, reserved bytes) — the admission property tests assert them
// against the quota.
func (t *tenant) Peaks() (inflight int, mem int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peakInflight, t.peakMem
}

// workerPool is the bounded global worker pool shared by every
// concurrent query in the process. Every admitted query always runs on
// its own goroutine; the pool only hands out the *extra* goroutines
// beyond that, up to its capacity, and never blocks — under load
// queries degrade to fewer workers, down to their own goroutine alone,
// instead of queueing twice. The grant is the concurrency: the engine
// runs a query on exactly 1 + extra goroutines. Results are
// bit-identical at any worker count, so degrading is safe.
type workerPool struct {
	cap int

	mu   sync.Mutex
	busy int
	peak int

	gBusy, gPeak *obs.Gauge
}

func newWorkerPool(capacity int, reg *obs.Registry) *workerPool {
	p := &workerPool{
		cap:   capacity,
		gBusy: reg.Gauge("service.pool.busy"),
		gPeak: reg.Gauge("service.pool.busy_peak"),
	}
	reg.Gauge("service.pool.capacity").Set(float64(capacity))
	return p
}

// acquire grants up to want-1 extra worker slots (the first worker is
// the caller's own goroutine and is never pooled). The grant is
// whatever is free right now, possibly zero.
func (p *workerPool) acquire(want int) int {
	if want <= 1 || p.cap <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	extra := want - 1
	if free := p.cap - p.busy; extra > free {
		extra = free
	}
	if extra < 0 {
		extra = 0
	}
	p.busy += extra
	if p.busy > p.peak {
		p.peak = p.busy
		p.gPeak.Set(float64(p.peak))
	}
	p.gBusy.Set(float64(p.busy))
	return extra
}

func (p *workerPool) release(extra int) {
	if extra <= 0 {
		return
	}
	p.mu.Lock()
	p.busy -= extra
	p.gBusy.Set(float64(p.busy))
	p.mu.Unlock()
}

// Peak returns the pool's lifetime occupancy high-water mark.
func (p *workerPool) Peak() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
