package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// pagerFixture writes a multi-chunk segment file and returns a pager
// over it plus the decoded directory and the largest chunk size.
func pagerFixture(t *testing.T, rows int, budget int64, reg *obs.Registry) (*pager, *chunkedDir, int64) {
	t.Helper()
	dir := t.TempDir()
	tb := multiChunkDB(rows).Table("fact")
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileSync(filepath.Join(dir, "fact.seg"), enc); err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	var maxChunk int64
	for _, c := range d.Chunks {
		if c.Size > maxChunk {
			maxChunk = c.Size
		}
	}
	return newPager(dir, budget, reg), d, maxChunk
}

// charged is what the pager charges a chunk with every column
// resident: the sum of its column regions, its frame less the envelope.
func charged(c chunkRef) int64 { return c.Size - envelopeSize }

// chunkedDirLen reads the directory envelope length out of a chunked
// segment's framing (envelope header + payload length).
func chunkedDirLen(enc []byte) int64 {
	return int64(envelopeSize) + int64(uint64(enc[8])|uint64(enc[9])<<8|uint64(enc[10])<<16|uint64(enc[11])<<24|
		uint64(enc[12])<<32|uint64(enc[13])<<40|uint64(enc[14])<<48|uint64(enc[15])<<56)
}

// fetch serves columns cols of chunk k through chunkPinned and releases
// the pin at once, as a reader done with the chunk does.
func fetch(p *pager, file string, d *chunkedDir, k int, cols []int) (*rel.Table, error) {
	tab, release, err := p.chunkPinned(file, d, k, cols)
	if err != nil {
		return nil, err
	}
	release()
	return tab, nil
}

// TestPagerBudgetNeverExceeded pins the acceptance property: resident
// bytes (the storage.pager.resident_bytes gauge) never exceed the
// budget, and the high-water mark of resident + in-flight bytes never
// exceeds budget + one chunk per concurrent loader (one, here).
func TestPagerBudgetNeverExceeded(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	var total int64
	for _, c := range d.Chunks {
		total += c.Size
	}
	budget := total / 3
	p.budget = budget
	if int64(len(d.Chunks)) < 4 {
		t.Fatalf("fixture too small: %d chunks", len(d.Chunks))
	}
	gauge := reg.Gauge("storage.pager.resident_bytes")
	for pass := 0; pass < 3; pass++ {
		for k := range d.Chunks {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
			if g := int64(gauge.Value()); g > budget {
				t.Fatalf("resident gauge %d exceeds budget %d", g, budget)
			}
		}
	}
	if r := p.residentBytes(); r > budget {
		t.Fatalf("resident %d exceeds budget %d", r, budget)
	}
	if pk := p.peakBytes(); pk > budget+maxChunk {
		t.Fatalf("peak %d exceeds budget %d + one chunk %d", pk, budget, maxChunk)
	}
	if reg.Counter("storage.pager.evictions").Value() == 0 {
		t.Fatal("a cache a third of the data size never evicted")
	}
	if reg.Counter("storage.pager.faults").Value() <= int64(len(d.Chunks)) {
		t.Fatal("three passes over a too-small cache should refault")
	}
}

// TestPagerUnlimitedKeepsEverything: with no budget, every chunk stays
// resident and repeat touches are pure hits.
func TestPagerUnlimitedKeepsEverything(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 320, 0, reg)
	var total int64
	for _, c := range d.Chunks {
		total += charged(c)
	}
	for pass := 0; pass < 2; pass++ {
		for k := range d.Chunks {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.residentBytes() != total {
		t.Fatalf("resident %d, want all %d", p.residentBytes(), total)
	}
	if v := reg.Counter("storage.pager.evictions").Value(); v != 0 {
		t.Fatalf("unlimited pager evicted %d chunks", v)
	}
	if f := reg.Counter("storage.pager.faults").Value(); f != int64(len(d.Chunks)) {
		t.Fatalf("%d faults, want exactly %d", f, len(d.Chunks))
	}
	if h := reg.Counter("storage.pager.hits").Value(); h != int64(len(d.Chunks)) {
		t.Fatalf("%d hits on second pass, want %d", h, len(d.Chunks))
	}
}

// TestPagerClockPrefersCold: under pressure the clock hand gives
// recently referenced chunks a second chance, so a hot chunk touched
// between every miss stays resident.
func TestPagerClockPrefersCold(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 3 * maxChunk
	if _, err := fetch(p, "fact.seg", d, 0, d.all); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(d.Chunks); k++ {
		if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
			t.Fatal(err)
		}
		if _, err := fetch(p, "fact.seg", d, 0, d.all); err != nil { // keep chunk 0 hot
			t.Fatal(err)
		}
	}
	// A recency-blind policy (FIFO) would refault the hot chunk on
	// nearly every miss (~2n faults); the reference bit must keep the
	// refault count near the compulsory n.
	faults := reg.Counter("storage.pager.faults").Value()
	if limit := int64(len(d.Chunks)) + 3; faults > limit {
		t.Fatalf("hot chunk kept getting evicted: %d faults for %d chunks (limit %d)", faults, len(d.Chunks), limit)
	}
}

// TestPagerConcurrentLoads drives the pager from many goroutines under
// -race: correctness of served data, and the documented overshoot bound
// of one chunk per concurrent loader.
func TestPagerConcurrentLoads(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 3 * maxChunk
	const loaders = 8
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				k := rng.Intn(len(d.Chunks))
				snap, err := fetch(p, "fact.seg", d, k, d.all)
				if err != nil {
					errs <- err
					return
				}
				want := d.ChunkRows
				if k == len(d.Chunks)-1 {
					want = d.RowCount - k*d.ChunkRows
				}
				if snap.RowCount() != want {
					errs <- fmt.Errorf("chunk %d served %d rows, want %d", k, snap.RowCount(), want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r := p.residentBytes(); r > p.budget {
		t.Fatalf("resident %d exceeds budget %d", r, p.budget)
	}
	if pk := p.peakBytes(); pk > p.budget+loaders*maxChunk {
		t.Fatalf("peak %d exceeds budget %d + %d loaders × chunk %d", pk, p.budget, loaders, maxChunk)
	}
}

// TestPagerEvictsToBudgetWhenPinsRelease: four chunks pinned at once
// against a three-chunk budget make the fourth admission go over it,
// since every victim is pinned. Once the pins are released, residency is
// back under the budget without another fault; before, the excess stayed
// until the next fault, and every concurrent loader's frame came on top
// of it. The release keeps the chunk it releases, so a chunk larger than
// the whole budget stays resident alone and is read again as a hit.
func TestPagerEvictsToBudgetWhenPinsRelease(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 3 * maxChunk
	if len(d.Chunks) < 4 {
		t.Fatalf("fixture too small: %d chunks", len(d.Chunks))
	}
	var releases []func()
	for k := 0; k < 4; k++ {
		_, release, err := p.chunkPinned("fact.seg", d, k, d.all)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	if r := p.residentBytes(); r <= p.budget {
		t.Fatalf("four pinned chunks hold %d bytes, within the budget %d: the probe needs an over-budget admission", r, p.budget)
	}
	for _, release := range releases {
		release()
	}
	if r := p.residentBytes(); r > p.budget {
		t.Fatalf("resident %d exceeds budget %d with no pin held", r, p.budget)
	}
	if g := int64(reg.Gauge("storage.pager.resident_bytes").Value()); g != p.residentBytes() {
		t.Fatalf("resident gauge %d, resident %d", g, p.residentBytes())
	}
	if reg.Counter("storage.pager.evictions").Value() == 0 {
		t.Fatal("nothing evicted")
	}

	// A chunk larger than the whole budget is admitted alone, and its
	// release keeps it: the next read of it is a hit.
	reg = obs.NewRegistry()
	p, d, maxChunk = pagerFixture(t, 640, 0, reg)
	p.budget = maxChunk / 2
	big := slices.IndexFunc(d.Chunks, func(c chunkRef) bool { return c.Size == maxChunk })
	for read := 0; read < 2; read++ {
		_, release, err := p.chunkPinned("fact.seg", d, big, d.all)
		if err != nil {
			t.Fatal(err)
		}
		release()
		if r, want := p.residentBytes(), charged(d.Chunks[big]); r != want {
			t.Fatalf("read %d: resident %d after releasing an over-budget chunk, want its %d bytes", read, r, want)
		}
	}
	if h, f := reg.Counter("storage.pager.hits").Value(), reg.Counter("storage.pager.faults").Value(); h != 1 || f != 1 {
		t.Fatalf("two reads of an over-budget chunk: %v hits, %v faults, want 1 and 1", h, f)
	}
}

// TestPagerInvalidate drops a table's chunks and serves fresh bytes on
// the next touch.
func TestPagerInvalidate(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 320, 0, reg)
	for k := range d.Chunks {
		if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
			t.Fatal(err)
		}
	}
	p.invalidate("fact")
	if p.residentBytes() != 0 {
		t.Fatalf("resident %d after invalidate", p.residentBytes())
	}
	before := reg.Counter("storage.pager.faults").Value()
	if _, err := fetch(p, "fact.seg", d, 0, d.all); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("storage.pager.faults").Value() != before+1 {
		t.Fatal("invalidated chunk served from cache")
	}
}

// TestPagerMetricsCompleteUnderRace pins the duplicate-admission
// accounting: every chunk request increments exactly one of hits or
// faults, even when concurrent loaders race to admit the same chunk
// (the raced-out load shows up in storage.pager.dup_loads instead of
// vanishing from both counters).
func TestPagerMetricsCompleteUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 640, 0, reg)
	const loaders = 8
	var total int64
	for k := range d.Chunks {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < loaders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		total += loaders
	}
	hits := reg.Counter("storage.pager.hits").Value()
	faults := reg.Counter("storage.pager.faults").Value()
	if hits+faults != total {
		t.Fatalf("hits %d + faults %d = %d requests accounted, want %d", hits, faults, hits+faults, total)
	}
	// Unlimited budget: each chunk is admitted exactly once.
	if faults != int64(len(d.Chunks)) {
		t.Fatalf("faults %d, want one admission per chunk (%d)", faults, len(d.Chunks))
	}
}

// TestPagerInvalidateKeepsClockOrder pins the hand clamp: dropping a
// table's chunks must not reset the sweep, or a recently referenced
// early-ring survivor loses its second chance to an unreferenced
// late-ring one.
func TestPagerInvalidateKeepsClockOrder(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 640, 0, reg)

	// A second table ("dim") in the same pager directory.
	dimTB := multiChunkDB(320).Table("fact")
	enc, err := EncodeChunkedSegment(dimTB.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileSync(filepath.Join(p.dir, "dim.seg"), enc); err != nil {
		t.Fatal(err)
	}
	dd, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	dd.Name = "dim"

	// Ring [f0 d0 f1] of one column each; hand parked on f1 after a sweep
	// that cleared d0 and re-referenced f0 (a hit after the hand passed
	// it).
	id := []int{0}
	for _, ld := range []struct {
		file string
		dir  *chunkedDir
		k    int
	}{{"fact.seg", d, 0}, {"dim.seg", dd, 0}, {"fact.seg", d, 1}} {
		if _, err := fetch(p, ld.file, ld.dir, ld.k, id); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	p.entries[chunkKey{"fact", "fact.seg", 0}].slots[0].ref = true
	p.entries[chunkKey{"dim", "dim.seg", 0}].slots[0].ref = false
	p.entries[chunkKey{"fact", "fact.seg", 1}].slots[0].ref = true
	p.hand = 2
	idBytes := p.entries[chunkKey{"fact", "fact.seg", 0}].slots[0].size // every full chunk's ID region
	p.mu.Unlock()

	p.invalidate("dim")
	if p.hand != 1 {
		t.Fatalf("hand %d after invalidating one entry before it, want 1", p.hand)
	}

	// Force exactly one eviction by admitting f2 with one byte short of
	// room. A clamped hand sweeps f1 → f0 → f1 and evicts f1; the old
	// reset-to-zero bug swept f0 → f1 → f0 and evicted the recently
	// referenced f0.
	p.budget = p.residentBytes() + idBytes - 1
	if _, err := fetch(p, "fact.seg", d, 2, id); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	_, f0 := p.entries[chunkKey{"fact", "fact.seg", 0}]
	_, f1 := p.entries[chunkKey{"fact", "fact.seg", 1}]
	p.mu.Unlock()
	if !f0 || f1 {
		t.Fatalf("clock order skewed: f0 resident=%v f1 resident=%v, want f1 evicted and f0 kept", f0, f1)
	}

	// Hand past every survivor clamps into range rather than indexing
	// out of the ring.
	p.mu.Lock()
	p.hand = len(p.ring)
	p.mu.Unlock()
	p.invalidate("fact")
	if p.hand != 0 || p.residentBytes() != 0 {
		t.Fatalf("hand %d resident %d after invalidating everything", p.hand, p.residentBytes())
	}
}

// TestPagerInvalidatePinnedAccounting: invalidating a table while a
// scan worker holds a chunk pinned must keep the pinned bytes in the
// residency accounting until the last unpin (the snapshot is still in
// memory), while making the dead entry unreachable to new readers —
// and dropping it must not disturb a fresh admission under the same
// key.
func TestPagerInvalidatePinnedAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 320, 0, reg)
	snap, release, err := p.chunkPinned("fact.seg", d, 0, d.all)
	if err != nil {
		t.Fatal(err)
	}
	if snap.RowCount() != d.ChunkRows {
		t.Fatalf("pinned chunk served %d rows, want %d", snap.RowCount(), d.ChunkRows)
	}
	if _, err := fetch(p, "fact.seg", d, 1, d.all); err != nil {
		t.Fatal(err)
	}
	size := charged(d.Chunks[0])

	p.invalidate("fact")
	if got := p.residentBytes(); got != size {
		t.Fatalf("resident %d after invalidating around a pinned chunk, want the pinned %d", got, size)
	}
	if g := int64(reg.Gauge("storage.pager.resident_bytes").Value()); g != size {
		t.Fatalf("resident gauge %d, want %d", g, size)
	}

	// The dead entry is unmapped: a new reader of the same chunk faults
	// a fresh copy instead of hitting the invalidated one.
	faults := reg.Counter("storage.pager.faults").Value()
	if _, err := fetch(p, "fact.seg", d, 0, d.all); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("storage.pager.faults").Value() != faults+1 {
		t.Fatal("invalidated-but-pinned chunk was served to a new reader")
	}

	// The last unpin drops the dead entry's bytes, leaving only the
	// fresh admission — which must survive the drop intact.
	release()
	release() // no pin outstanding: a no-op, the dead entry is dropped once
	if got := p.residentBytes(); got != size {
		t.Fatalf("resident %d after last unpin, want the fresh admission's %d", got, size)
	}
	hits := reg.Counter("storage.pager.hits").Value()
	if _, err := fetch(p, "fact.seg", d, 0, d.all); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("storage.pager.hits").Value() != hits+1 {
		t.Fatal("fresh admission vanished when the dead entry dropped")
	}
}

// TestPagerPinnedChunkSurvivesPressure: a pinned chunk is never chosen
// as a victim; after release it is evictable again.
func TestPagerPinnedChunkSurvivesPressure(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 2 * maxChunk
	snap, release, err := p.chunkPinned("fact.seg", d, 0, d.all)
	if err != nil {
		t.Fatal(err)
	}
	if snap.RowCount() != d.ChunkRows {
		t.Fatalf("pinned chunk served %d rows, want %d", snap.RowCount(), d.ChunkRows)
	}
	for pass := 0; pass < 2; pass++ {
		for k := 1; k < len(d.Chunks); k++ {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.mu.Lock()
	_, pinned := p.entries[chunkKey{"fact", "fact.seg", 0}]
	p.mu.Unlock()
	if !pinned {
		t.Fatal("pinned chunk was evicted under pressure")
	}
	release()
	release() // no pin outstanding: a no-op
	p.mu.Lock()
	pins := p.entries[chunkKey{"fact", "fact.seg", 0}].pins
	p.mu.Unlock()
	if pins != 0 {
		t.Fatalf("pins %d after release, want 0", pins)
	}
	for pass := 0; pass < 3; pass++ {
		for k := 1; k < len(d.Chunks); k++ {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.mu.Lock()
	_, still := p.entries[chunkKey{"fact", "fact.seg", 0}]
	p.mu.Unlock()
	if still {
		t.Fatal("released chunk never evicted under sustained pressure")
	}
}

// TestPagerReleaseNeverUnderflows pins the misuse contract of the
// release chunkPinned returns (one closure per entry, so a hit allocates
// nothing): with no pin outstanding it is a no-op. A stray release must
// not bank a negative count that cancels the next reader's pin — that
// reader's chunk would be evictable while held, breaking the peak <=
// budget + one chunk per worker bound — and must not keep a dead entry
// from ever reaching the pins == 0 that drops its bytes.
func TestPagerReleaseNeverUnderflows(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 2 * maxChunk
	key := chunkKey{"fact", "fact.seg", 0}
	pinsOf := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.entries[key].pins
	}

	_, stray, err := p.chunkPinned("fact.seg", d, 0, d.all)
	if err != nil {
		t.Fatal(err)
	}
	stray()
	stray()
	stray()
	if got := pinsOf(); got != 0 {
		t.Fatalf("pins %d after repeated release, want 0", got)
	}

	// The next reader's pin counts in full and holds under pressure.
	_, release, err := p.chunkPinned("fact.seg", d, 0, d.all)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinsOf(); got != 1 {
		t.Fatalf("pins %d for one reader after a stray release, want 1", got)
	}
	for pass := 0; pass < 2; pass++ {
		for k := 1; k < len(d.Chunks); k++ {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.mu.Lock()
	_, held := p.entries[key]
	p.mu.Unlock()
	if !held {
		t.Fatal("a stray release let a pinned chunk be evicted")
	}

	// Invalidated while pinned, then released more than once: the dead
	// entry leaves the ring and the account exactly once.
	p.invalidate("fact")
	if got, want := p.residentBytes(), charged(d.Chunks[0]); got != want {
		t.Fatalf("resident %d with one dead pinned chunk, want %d", got, want)
	}
	release()
	release()
	stray()
	p.mu.Lock()
	ring, resident := len(p.ring), p.resident
	p.mu.Unlock()
	if ring != 0 || resident != 0 {
		t.Fatalf("ring %d resident %d after the dead entry's releases, want 0 and 0", ring, resident)
	}
	if g := reg.Gauge("storage.pager.resident_bytes").Value(); g != 0 {
		t.Fatalf("resident gauge %v, want 0", g)
	}
}

// TestPagerTellsReadErrorsFromChecksumFailures: a chunk that cannot be
// read (here: the file ends inside it) counts under storage.read.errors;
// a chunk that reads but does not verify counts under
// storage.checksum.failures. Neither leaks into the other, and an
// intact chunk of the same file still loads.
func TestPagerTellsReadErrorsFromChecksumFailures(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 320, 0, reg)
	path := filepath.Join(p.dir, "fact.seg")
	readErrs := reg.Counter("storage.read.errors")
	crcFails := reg.Counter("storage.checksum.failures")

	last := len(d.Chunks) - 1
	if err := os.Truncate(path, d.Chunks[last].Off+d.Chunks[last].Size/2); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, "fact.seg", d, last, d.all); err == nil {
		t.Fatal("chunk past the end of a truncated file loaded")
	}
	if r, c := readErrs.Value(), crcFails.Value(); r != 1 || c != 0 {
		t.Fatalf("short read: read.errors %d checksum.failures %d, want 1 and 0", r, c)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[d.Chunks[0].Off+envelopeSize+3] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, "fact.seg", d, 0, d.all); err == nil {
		t.Fatal("chunk with a flipped payload bit loaded")
	}
	if r, c := readErrs.Value(), crcFails.Value(); r != 1 || c != 1 {
		t.Fatalf("flipped bit: read.errors %d checksum.failures %d, want 1 and 1", r, c)
	}

	if _, err := fetch(p, "fact.seg", d, 1, d.all); err != nil {
		t.Fatalf("intact chunk: %v", err)
	}
	if r, c := readErrs.Value(), crcFails.Value(); r != 1 || c != 1 {
		t.Fatalf("intact chunk moved the counters: read.errors %d checksum.failures %d", r, c)
	}
}
