package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
)

// pager is a memory-budgeted cache of decoded, validated chunk tables:
// an entry holds the *rel.Table the verification chain produced, ready
// to scan, so a hit hands it out as is and allocates nothing.
// Residency is accounted in on-disk framed chunk bytes (a stable,
// deterministic proxy for heap cost: scans read the cached vectors in
// place and never grow a row cache on them), and eviction is CLOCK
// (second-chance): a hit sets the entry's reference bit, the clock
// hand clears bits until it finds an unreferenced victim. A budget of
// zero or less means unlimited — nothing is ever evicted, matching the
// fully-resident behavior of earlier formats.
//
// The budget is a cache target, not a hard ceiling: a chunk currently
// being loaded is not yet evictable, so resident + in-flight bytes can
// exceed the budget by one chunk per concurrent loader (the peak field
// tracks the high-water mark so tests can pin exactly that bound).
type pager struct {
	dir    string
	budget int64
	reg    *obs.Registry

	mu       sync.Mutex
	entries  map[chunkKey]*pageEntry
	ring     []*pageEntry // clock order
	hand     int
	resident int64
	inflight int64 // bytes of chunks being loaded right now
	peak     int64 // high-water mark of resident + inflight
}

// chunkKey identifies one chunk of one table. The epoch-unique segment
// file name is part of the key: compaction rewrites a table into a new
// file (t%04d.e%04d.seg), and a load of the old file that completes
// after invalidate must never be served to a post-compaction scan of
// the same table and chunk index — a stale admission lands under the
// dead file's key, where no new reader looks, and the next
// invalidate(table) sweeps it out.
type chunkKey struct {
	table string
	file  string
	idx   int
}

// pageEntry is one cached chunk.
type pageEntry struct {
	key   chunkKey
	tab   *rel.Table
	size  int64
	ref   bool   // CLOCK reference bit
	pins  int    // active chunkPinned readers; pinned entries are not evictable
	dead  bool   // invalidated while pinned; dropped from the ring at the last unpin
	unpin func() // releases one pin; built once at admission so a pinned hit allocates nothing
}

func newPager(dir string, budget int64, reg *obs.Registry) *pager {
	return &pager{
		dir:     dir,
		budget:  budget,
		reg:     reg,
		entries: make(map[chunkKey]*pageEntry),
	}
}

// chunk returns chunk k of the table described by d, loading it
// through the verification chain (chunk CRC → bounds-checked decode →
// TableFromSnapshot structural validation) on a miss and evicting
// under the budget before admitting it.
func (p *pager) chunk(file string, d *chunkedDir, k int) (*rel.Table, error) {
	e, err := p.acquire(file, d, k, false)
	if err != nil {
		return nil, err
	}
	return e.tab, nil
}

// chunkPinned is chunk with the entry pinned against eviction until the
// returned release is called, once per call. Scans hold exactly one pin
// per worker, so the budget overshoot stays bounded to one chunk per
// worker even when every other entry is evictable.
//
// The release is the entry's one unpin closure, not a per-acquisition
// one (that would be an allocation on every hit), so it cannot tell
// whose pin it is dropping. What it guarantees instead: a release with
// no pin outstanding is a no-op, so the pin count never goes negative —
// a repeated release by the only holder is harmless, and no sequence of
// releases can leave a later reader's pin netting to zero or a dead
// entry's bytes stranded in the account. A repeated release while
// another reader holds the same chunk does drop that reader's pin;
// callers release once.
func (p *pager) chunkPinned(file string, d *chunkedDir, k int) (*rel.Table, func(), error) {
	e, err := p.acquire(file, d, k, true)
	if err != nil {
		return nil, nil, err
	}
	return e.tab, e.unpin, nil
}

// acquire serves one chunk's cache entry, pinned when pin is set.
// Every call increments exactly one of storage.pager.hits or
// storage.pager.faults: a fault is an admission; a load raced out by a
// concurrent admission counts as a hit plus storage.pager.dup_loads
// (the wasted read keeps bytes_read honest without double-counting
// admissions).
func (p *pager) acquire(file string, d *chunkedDir, k int, pin bool) (*pageEntry, error) {
	key := chunkKey{table: d.Name, file: file, idx: k}
	ref := &d.Chunks[k]
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		p.hitLocked(e, pin)
		p.mu.Unlock()
		p.reg.Counter("storage.pager.hits").Inc()
		return e, nil
	}
	p.inflight += ref.Size
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	p.mu.Unlock()

	tab, err := p.load(file, d, k)

	p.mu.Lock()
	p.inflight -= ref.Size
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if e, ok := p.entries[key]; ok {
		// Another loader admitted the same chunk while we read it;
		// serve the cached copy.
		p.hitLocked(e, pin)
		p.mu.Unlock()
		p.reg.Counter("storage.pager.hits").Inc()
		p.reg.Counter("storage.pager.dup_loads").Inc()
		return e, nil
	}
	p.evictFor(ref.Size)
	e := &pageEntry{key: key, tab: tab, size: ref.Size}
	e.unpin = func() { p.unpin(e) }
	p.entries[key] = e
	p.ring = append(p.ring, e)
	p.resident += e.size
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	p.hitLocked(e, pin)
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
	p.mu.Unlock()
	p.reg.Counter("storage.pager.faults").Inc()
	return e, nil
}

// hitLocked marks e referenced and takes a pin on it when pin is set.
// Caller holds p.mu.
func (p *pager) hitLocked(e *pageEntry, pin bool) {
	e.ref = true
	if pin {
		e.pins++
	}
}

// unpin releases one pin on e; with none outstanding it does nothing
// (see chunkPinned). The last unpin of an entry invalidate marked dead
// drops it from the ring and the accounting — until then its bytes stay
// resident (the reader still holds the table), so the gauge and peak
// reflect actual residency.
func (p *pager) unpin(e *pageEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.pins == 0 {
		return
	}
	e.pins--
	if e.dead && e.pins == 0 {
		p.dropDeadLocked(e)
	}
}

// dropDeadLocked removes a dead (invalidated-while-pinned) entry from
// the ring and the residency accounting. Caller holds p.mu. The entry
// left the entries map at invalidate time — a fresh admission may own
// that key by now — so removal is by ring identity, never by key.
func (p *pager) dropDeadLocked(e *pageEntry) {
	for i, r := range p.ring {
		if r == e {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if i < p.hand {
				p.hand--
			}
			break
		}
	}
	p.resident -= e.size
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
}

// load reads and validates one chunk from disk (no cache interaction).
// A failed or short read counts under storage.read.errors; a chunk that
// was read but does not verify (CRC, decode, structural validation)
// counts under storage.checksum.failures.
func (p *pager) load(file string, d *chunkedDir, k int) (*rel.Table, error) {
	ref := &d.Chunks[k]
	f, err := os.Open(filepath.Join(p.dir, file))
	if err != nil {
		p.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading chunk %d of %s: %w", k, d.Name, err)
	}
	defer f.Close()
	blob := make([]byte, ref.Size)
	if _, err := f.ReadAt(blob, ref.Off); err != nil {
		p.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading chunk %d of %s at offset %d: %w", k, d.Name, ref.Off, err)
	}
	tab, err := d.decodeChunk(k, blob)
	if err != nil {
		p.reg.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	p.reg.Counter("storage.segment.bytes_read").Add(ref.Size)
	return tab, nil
}

// evictFor makes room for need bytes under the budget. Caller holds
// p.mu. The scan is bounded: one full sweep clears every reference
// bit, a second finds a victim, so 2·len+1 steps always suffice (a
// ring of only pinned entries simply runs the bound out and admits
// over budget — the peak tracking records exactly that overshoot).
func (p *pager) evictFor(need int64) {
	if p.budget <= 0 {
		return
	}
	evictions := p.reg.Counter("storage.pager.evictions")
	for steps := 2*len(p.ring) + 1; steps > 0 && p.resident+need > p.budget && len(p.ring) > 0; steps-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		e := p.ring[p.hand]
		if e.pins > 0 {
			p.hand++
			continue
		}
		if e.ref {
			e.ref = false
			p.hand++
			continue
		}
		p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
		delete(p.entries, e.key)
		p.resident -= e.size
		evictions.Inc()
	}
}

// invalidate drops every cached chunk of a table (compaction rewrote
// its segment, so cached chunks describe a dead file). An entry a scan
// worker still holds pinned cannot leave memory yet: it is unmapped (no
// future hit can reach it) but marked dead and kept in the ring with
// its bytes accounted until the last unpin drops it, so resident_bytes
// and the peak high-water mark track actual residency. The clock hand
// is re-indexed against the surviving ring rather than reset: a reset
// would hand every surviving early-ring entry a fresh second chance
// after each compaction and skew eviction toward late-ring entries.
func (p *pager) invalidate(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := p.ring[:0]
	hand := p.hand
	for i, e := range p.ring {
		if e.key.table == table {
			delete(p.entries, e.key)
			if e.pins > 0 {
				e.dead = true
				e.ref = false
				keep = append(keep, e)
				continue
			}
			if i < p.hand {
				hand--
			}
			p.resident -= e.size
			continue
		}
		keep = append(keep, e)
	}
	p.ring = keep
	if hand < 0 || hand > len(keep) {
		hand = 0
	}
	p.hand = hand
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
}

// residentBytes reports the current cache residency (for summaries).
func (p *pager) residentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// peakBytes reports the high-water mark of resident + in-flight bytes;
// tests pin it to budget + one chunk per concurrent loader.
func (p *pager) peakBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
