package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/rel"
)

// pager is a memory-budgeted cache of decoded, validated chunk columns,
// and ChunkScan is its one client: assembling a table reads the segment
// file and leaves the cache alone. Its unit is one column of one chunk:
// a scan faults, keeps and is charged for only the columns it reads, so
// a query that filters one column and projects two holds three of a
// chunk's columns, not all of them. An entry is one chunk; it holds a
// *rel.Table fragment with the chunk's resident columns, as the
// verification chain produced them and ready to scan, so a hit hands it
// out as is and allocates nothing. The
// fragment is never written: admitting or evicting a column replaces it
// with a new fragment sharing the other columns' vectors (rel's
// WithColumns and WithoutColumn), so a fragment a reader already holds
// stays what it was.
//
// Residency is accounted per column in encoded region bytes (a stable,
// deterministic proxy for heap cost: scans read the cached vectors in
// place and never grow a row cache on them), and eviction is CLOCK
// (second-chance) over column slots: a hit sets the reference bit of
// every column it asked for, the clock hand clears bits until it finds
// an unreferenced victim. A pinned chunk's columns are never victims. A
// budget of zero or less means unlimited — nothing is ever evicted.
//
// The budget is a cache target, not a hard ceiling: a fault reads its
// chunk's whole frame before it knows what it will keep, so resident +
// in-flight bytes can exceed the budget by one frame per concurrent
// loader (the peak field tracks the high-water mark so tests can pin
// exactly that bound).
type pager struct {
	dir    string
	budget int64
	reg    *obs.Registry

	mu       sync.Mutex
	entries  map[chunkKey]*pageEntry
	ring     []*colSlot // clock order
	hand     int
	resident int64
	inflight int64 // frame bytes being read right now
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

// pageEntry is one cached chunk: it enters the map when a fault admits
// its first columns and leaves when its last column is evicted or its
// table is invalidated.
type pageEntry struct {
	key   chunkKey
	tab   *rel.Table // the resident columns
	slots []colSlot  // by column index; the ring points at the resident ones
	n     int        // resident columns
	pins  int        // readers holding the chunk; a pinned chunk loses no column
	dead  bool       // invalidated while pinned; dropped from the ring at the last unpin
	unpin func()     // releases one pin; built once per entry so a pinned hit allocates nothing
}

// colSlot is one column of one cached chunk: the unit CLOCK evicts and
// the budget charges while it is resident.
type colSlot struct {
	e    *pageEntry
	col  int
	in   bool  // resident
	size int64 // the column's encoded region bytes, while resident
	ref  bool  // CLOCK reference bit
}

// frame is a fault's scratch, and readChunks': the chunk's framed bytes,
// read once, and every column region's length. Frames are pooled, since
// decode copies out everything it keeps.
type frame struct {
	buf     []byte
	regions []int64
}

var frames = sync.Pool{New: func() any { return new(frame) }}

func newPager(dir string, budget int64, reg *obs.Registry) *pager {
	return &pager{
		dir:     dir,
		budget:  budget,
		reg:     reg,
		entries: make(map[chunkKey]*pageEntry),
	}
}

// chunkPinned returns chunk k with at least the columns cols (ascending
// column indices) resident, pinned against eviction until the returned
// release is called, once per call. Scans hold exactly one pin per
// worker, so the budget overshoot stays bounded to one chunk per worker
// even when every other column is evictable.
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
//
// Every call increments exactly one of storage.pager.hits or
// storage.pager.faults. A hit finds every column resident. A miss reads
// the chunk's frame once and decodes the columns it lacked; it is a
// fault when it admits at least one of them, and a load raced out by
// concurrent admissions of all of them counts as a hit plus
// storage.pager.dup_loads — so frames read = faults + dup_loads, and
// bytes_read stays honest without double-counting admissions.
//
// A miss holds no pin while it reads, so what it holds beyond the
// budget is its frame alone; a column that was resident when it began
// may be evicted meanwhile, and is then decoded from the frame it still
// holds, under the lock, so the admission stays one step.
func (p *pager) chunkPinned(file string, d *chunkedDir, k int, cols []int) (*rel.Table, func(), error) {
	key := chunkKey{table: d.Name, file: file, idx: k}
	ref := &d.Chunks[k]
	p.mu.Lock()
	e := p.entries[key]
	missing := absentLocked(e, cols)
	if e != nil && missing == nil {
		tab, release := p.hitLocked(e, cols)
		p.mu.Unlock()
		p.reg.Counter("storage.pager.hits").Inc()
		return tab, release, nil
	}
	p.inflight += ref.Size
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	p.mu.Unlock()

	fr := frames.Get().(*frame)
	defer frames.Put(fr)
	frag, err := p.load(file, d, k, missing, fr)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight -= ref.Size
	if err != nil {
		return nil, nil, err
	}
	if e = p.entries[key]; e == nil {
		e = &pageEntry{key: key, slots: make([]colSlot, len(d.Cols))}
		for c := range e.slots {
			e.slots[c] = colSlot{e: e, col: c}
		}
		e.unpin = func() { p.unpin(e) }
		p.entries[key] = e
	}
	admitted := p.admitLocked(e, frag, missing, fr.regions)
	if lost := absentLocked(e, cols); lost != nil {
		frag, err := d.decodeChunk(k, fr.buf[:ref.Size], lost, nil)
		if err != nil {
			p.reg.Counter("storage.checksum.failures").Inc()
			return nil, nil, err
		}
		admitted = p.admitLocked(e, frag, lost, fr.regions) || admitted
	}
	tab, release := p.hitLocked(e, cols)
	if admitted {
		p.reg.Counter("storage.pager.faults").Inc()
	} else {
		p.reg.Counter("storage.pager.hits").Inc()
		p.reg.Counter("storage.pager.dup_loads").Inc()
	}
	return tab, release, nil
}

// absentLocked lists the columns of cols that e (nil: no entry) does not
// hold, or nil when it holds them all. Caller holds p.mu.
func absentLocked(e *pageEntry, cols []int) []int {
	n := 0
	for _, c := range cols {
		if e == nil || !e.slots[c].in {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	absent := make([]int, 0, n)
	for _, c := range cols {
		if e == nil || !e.slots[c].in {
			absent = append(absent, c)
		}
	}
	return absent
}

// admitLocked makes the columns cols of frag resident in e where e
// lacks them, evicting to make room, and reports whether it admitted
// any (a new entry's first fragment counts, columns or none). e is
// pinned while room is made, so none of its columns is a victim.
// Caller holds p.mu.
func (p *pager) admitLocked(e *pageEntry, frag *rel.Table, cols []int, regions []int64) bool {
	var need int64
	fresh := 0
	for _, c := range cols {
		if !e.slots[c].in {
			need += regions[c]
			fresh++
		}
	}
	if fresh == 0 && e.tab != nil {
		return false
	}
	e.pins++
	p.evictFor(need)
	e.pins--
	for _, c := range cols {
		if s := &e.slots[c]; !s.in {
			s.in, s.size, s.ref = true, regions[c], false
			e.n++
			p.ring = append(p.ring, s)
			p.resident += s.size
		}
	}
	if e.tab == nil {
		e.tab = frag
	} else {
		e.tab = e.tab.WithColumns(frag)
	}
	if hw := p.resident + p.inflight; hw > p.peak {
		p.peak = hw
	}
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
	return true
}

// hitLocked marks the columns cols of e referenced, takes a pin, and
// returns e's fragment and its release. Caller holds p.mu.
func (p *pager) hitLocked(e *pageEntry, cols []int) (*rel.Table, func()) {
	for _, c := range cols {
		e.slots[c].ref = true
	}
	e.pins++
	return e.tab, e.unpin
}

// unpin releases one pin on e; with none outstanding it does nothing
// (see chunkPinned). The last unpin of an entry invalidate marked dead
// drops it from the ring and the accounting — until then its bytes stay
// resident (the reader still holds the fragment), so the gauge and peak
// reflect actual residency.
func (p *pager) unpin(e *pageEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.pins == 0 {
		return
	}
	if e.pins--; e.pins == 0 && e.dead {
		p.dropDeadLocked(e)
	}
}

// dropDeadLocked removes a dead (invalidated-while-pinned) entry's
// column slots from the ring and the residency accounting. Caller holds
// p.mu. The entry left the entries map at invalidate time — a fresh
// admission may own that key by now — so removal is by identity, never
// by key.
func (p *pager) dropDeadLocked(e *pageEntry) {
	keep := p.ring[:0]
	hand := p.hand
	for i, s := range p.ring {
		if s.e != e {
			keep = append(keep, s)
			continue
		}
		if i < p.hand {
			hand--
		}
		p.resident -= s.size
	}
	clear(p.ring[len(keep):])
	p.ring, p.hand = keep, hand
	p.reg.Gauge("storage.pager.resident_bytes").Set(float64(p.resident))
}

// load opens file and reads chunk k of it through readChunk (no cache
// interaction). Failing to open the file counts under
// storage.read.errors.
func (p *pager) load(file string, d *chunkedDir, k int, cols []int, fr *frame) (*rel.Table, error) {
	f, err := os.Open(filepath.Join(p.dir, file))
	if err != nil {
		p.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading chunk %d of %s: %w", k, d.Name, err)
	}
	defer f.Close()
	return d.readChunk(f, k, cols, fr, p.reg)
}

// evictFor makes room for need bytes under the budget. Caller holds
// p.mu. The scan is bounded: one full sweep clears every reference
// bit, a second finds a victim, so 2·len+1 steps always suffice (a
// ring of only pinned chunks' columns simply runs the bound out and
// admits over budget — the peak tracking records exactly that
// overshoot).
func (p *pager) evictFor(need int64) {
	if p.budget <= 0 {
		return
	}
	evictions := p.reg.Counter("storage.pager.evictions")
	for steps := 2*len(p.ring) + 1; steps > 0 && p.resident+need > p.budget && len(p.ring) > 0; steps-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		s := p.ring[p.hand]
		if s.e.pins > 0 {
			p.hand++
			continue
		}
		if s.ref {
			s.ref = false
			p.hand++
			continue
		}
		p.ring = slices.Delete(p.ring, p.hand, p.hand+1)
		p.resident -= s.size
		s.in = false
		e := s.e
		if e.n--; e.n == 0 {
			e.tab = nil
			delete(p.entries, e.key)
		} else {
			e.tab = e.tab.WithoutColumn(s.col)
		}
		evictions.Inc()
	}
}

// invalidate drops every cached chunk of a table (compaction rewrote
// its segment, so cached chunks describe a dead file). A chunk a scan
// worker or a loader still holds pinned cannot leave memory yet: it is
// unmapped (no future hit can reach it) but marked dead and its columns
// kept in the ring with their bytes accounted until the last unpin drops
// them, so resident_bytes and the peak high-water mark track actual
// residency. The clock hand is re-indexed against the surviving ring
// rather than reset: a reset would hand every surviving early-ring
// column a fresh second chance after each compaction and skew eviction
// toward late-ring columns.
func (p *pager) invalidate(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, e := range p.entries {
		if key.table == table {
			delete(p.entries, key)
			e.dead = e.pins > 0
		}
	}
	keep := p.ring[:0]
	hand := p.hand
	for i, s := range p.ring {
		switch {
		case s.e.key.table != table:
		case s.e.dead:
			s.ref = false
		default:
			if i < p.hand {
				hand--
			}
			p.resident -= s.size
			continue
		}
		keep = append(keep, s)
	}
	clear(p.ring[len(keep):])
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
// tests pin it to budget + one frame per concurrent loader.
func (p *pager) peakBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
