package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rel"
)

// columnServed reports whether a typed accessor serves column c.
func columnServed(tb *rel.Table, c int) bool {
	_, _, okI := tb.IntCol(c)
	_, _, okF := tb.FloatCol(c)
	_, _, _, okS := tb.StrCol(c)
	return okI || okF || okS
}

// columnAbsent reports whether reading a cell of column c panics, which
// is what an absent column of a fragment does.
func columnAbsent(tb *rel.Table, c int) (absent bool) {
	defer func() { absent = recover() != nil }()
	tb.ValueAt(0, c)
	return false
}

// requireColumnsEqual holds the columns cols of frag to want's, cell by
// cell under BitEqual and accessor by accessor.
func requireColumnsEqual(t testing.TB, label string, frag, want *rel.Table, cols []int) {
	t.Helper()
	if frag.RowCount() != want.RowCount() {
		t.Fatalf("%s: %d rows, want %d", label, frag.RowCount(), want.RowCount())
	}
	for _, c := range cols {
		if columnServed(frag, c) != columnServed(want, c) {
			t.Fatalf("%s: column %d served by a typed accessor: %v, want %v", label, c, columnServed(frag, c), columnServed(want, c))
		}
		for r := 0; r < want.RowCount(); r++ {
			if g, w := frag.ValueAt(r, c), want.ValueAt(r, c); !g.BitEqual(w) {
				t.Fatalf("%s: (%d,%d) = %v, want %v", label, r, c, g, w)
			}
		}
	}
}

// requireAbsent holds every column of frag outside cols absent: the
// typed accessors report !ok and a cell read panics.
func requireAbsent(t *testing.T, label string, frag *rel.Table, cols []int) {
	t.Helper()
	for c := range frag.Columns {
		if slices.Contains(cols, c) {
			continue
		}
		if columnServed(frag, c) || !columnAbsent(frag, c) {
			t.Fatalf("%s: column %d was never asked for but is resident", label, c)
		}
	}
}

// randomColumns draws a non-empty ascending subset of n columns.
func randomColumns(rng *rand.Rand, n int) []int {
	var cols []int
	for len(cols) == 0 {
		cols = cols[:0]
		for c := 0; c < n; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
	}
	return cols
}

// TestChunkColumnsMatchChunk is the column pager's property test: over
// random column subsets of every chunk of the scan-store fixture, a
// fragment fetched for a subset is bit-equal to the whole chunk on those
// columns and holds no other column, and a second subset fetched on top
// leaves the union resident and nothing else.
func TestChunkColumnsMatchChunk(t *testing.T) {
	dir := savedScanStore(t, 640)
	oracle, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(28))
	for _, table := range []string{"big", "kid"} {
		whole, err := oracle.ChunkScan(table)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := s.ChunkScan(table)
		if err != nil {
			t.Fatal(err)
		}
		ncols := len(cs.Columns())
		for k := 0; k < cs.NumChunks(); k++ {
			want, release, err := whole.Chunk(k)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				s.pager.invalidate(table)
				first := randomColumns(rng, ncols)
				frag, rel1, err := cs.ChunkColumns(k, first)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s chunk %d columns %v", table, k, first)
				requireColumnsEqual(t, label, frag, want, first)
				requireAbsent(t, label, frag, first)
				rel1()

				second := randomColumns(rng, ncols)
				frag, rel2, err := cs.ChunkColumns(k, second)
				if err != nil {
					t.Fatal(err)
				}
				union := append(slices.Clone(first), second...)
				slices.Sort(union)
				union = slices.Compact(union)
				label = fmt.Sprintf("%s chunk %d columns %v then %v", table, k, first, second)
				requireColumnsEqual(t, label, frag, want, union)
				requireAbsent(t, label, frag, union)
				rel2()
			}
			release()
		}
	}
}

// TestChunkColumnsHitAllocatesNothing extends the whole-chunk hit pin to
// column sets: a hit on a subset is a lock, a map lookup, a reference
// bit per column and a pin, and so is a subset of a superset already
// cached — it is served by the superset's fragment as is.
func TestChunkColumnsHitAllocatesNothing(t *testing.T) {
	s, err := Open(savedScanStore(t, 640), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs, err := s.ChunkScan("big")
	if err != nil {
		t.Fatal(err)
	}
	acquire := func(k int, cols []int) *rel.Table {
		frag, release, err := cs.ChunkColumns(k, cols)
		if err != nil {
			t.Fatal(err)
		}
		release()
		return frag
	}
	subset, inner := []int{0, 2}, []int{1, 4}
	for k := 0; k < cs.NumChunks(); k++ {
		first := acquire(k, subset)
		if allocs := testing.AllocsPerRun(50, func() {
			if acquire(k, subset) != first {
				t.Fatal("a subset hit served a different fragment than the one cached")
			}
		}); allocs != 0 {
			t.Errorf("chunk %d: a subset hit allocates %.0f times, want 0", k, allocs)
		}
		whole := acquire(k, cs.d.all)
		if allocs := testing.AllocsPerRun(50, func() {
			if acquire(k, inner) != whole {
				t.Fatal("a hit on a subset of the cached columns served another fragment")
			}
		}); allocs != 0 {
			t.Errorf("chunk %d: a hit on a cached superset allocates %.0f times, want 0", k, allocs)
		}
	}
}

// TestChunkColumnsConcurrentOverlap fetches overlapping column sets of
// one chunk from many goroutines at once (under -race in CI): every
// fetch counts as exactly one hit or fault, every frame read is a fault
// or a duplicate load (frames read = faults + dup_loads), every fragment
// holds what its fetch asked for, bit-equal to the chunk, and the chunk
// ends up holding the union.
func TestChunkColumnsConcurrentOverlap(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 640, 0, reg)
	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 1, 2, 3}, {1}, {3}, {0, 2}}
	counters := func() (hits, faults, dups, bytes int64) {
		return reg.Counter("storage.pager.hits").Value(), reg.Counter("storage.pager.faults").Value(),
			reg.Counter("storage.pager.dup_loads").Value(), reg.Counter("storage.segment.bytes_read").Value()
	}
	for k, ref := range d.Chunks {
		want, err := d.decodeChunk(k, mustReadFrame(t, p, d, k), d.all, nil)
		if err != nil {
			t.Fatal(err)
		}
		h0, f0, dup0, b0 := counters()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, cols := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				frag, release, err := p.chunkPinned("fact.seg", d, k, cols)
				if err != nil {
					t.Error(err)
					return
				}
				defer release()
				for _, c := range cols {
					for r := 0; r < want.RowCount(); r++ {
						if g, w := frag.ValueAt(r, c), want.ValueAt(r, c); !g.BitEqual(w) {
							t.Errorf("chunk %d cols %v: (%d,%d) = %v, want %v", k, cols, r, c, g, w)
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		h1, f1, dup1, b1 := counters()
		hits, faults, dups, read := h1-h0, f1-f0, dup1-dup0, b1-b0
		if hits+faults != int64(len(sets)) {
			t.Fatalf("chunk %d: %d hits + %d faults for %d fetches", k, hits, faults, len(sets))
		}
		if faults == 0 {
			t.Fatalf("chunk %d: nothing faulted", k)
		}
		if read != (faults+dups)*ref.Size {
			t.Fatalf("chunk %d: %d bytes read, want (%d faults + %d duplicate loads) × %d-byte frame", k, read, faults, dups, ref.Size)
		}
		frag, err := fetch(p, "fact.seg", d, k, d.all)
		if err != nil {
			t.Fatal(err)
		}
		if h2, f2, _, _ := counters(); f2 != f1 || h2 != h1+1 {
			t.Fatalf("chunk %d: the union of the fetched sets was not left resident", k)
		}
		requireColumnsEqual(t, "union", frag, want, d.all)
	}
}

// TestChunkColumnsUnderEvictionStorm drives overlapping random column
// fetches from many goroutines through a budget smaller than one chunk,
// so columns are evicted while other fetches of the same chunk are
// reading its frame. A fetch that found a column resident and lost it
// meanwhile must still come back with every column it asked for.
func TestChunkColumnsUnderEvictionStorm(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = maxChunk / 2
	want := make([]*rel.Table, len(d.Chunks))
	for k := range d.Chunks {
		var err error
		if want[k], err = d.decodeChunk(k, mustReadFrame(t, p, d, k), d.all, nil); err != nil {
			t.Fatal(err)
		}
	}
	const loaders = 8
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := 0 // half the fetches share chunk 0; the rest keep room scarce
				if rng.Intn(2) == 0 {
					k = rng.Intn(len(d.Chunks))
				}
				cols := randomColumns(rng, len(d.Cols))
				frag, release, err := p.chunkPinned("fact.seg", d, k, cols)
				if err != nil {
					t.Error(err)
					return
				}
				for _, c := range cols {
					r := rng.Intn(want[k].RowCount())
					if columnAbsent(frag, c) || !frag.ValueAt(r, c).BitEqual(want[k].ValueAt(r, c)) {
						release()
						t.Errorf("chunk %d columns %v: column %d missing or wrong", k, cols, c)
						return
					}
				}
				release()
			}
		}(int64(g))
	}
	wg.Wait()
	if reg.Counter("storage.pager.evictions").Value() == 0 {
		t.Fatal("nothing was evicted; the storm applies no pressure")
	}
	// An admission over a ring of pinned columns admits over budget, and
	// nothing evicts once the fetches stop: what can remain is the budget
	// plus what the loaders held pinned.
	if r := p.residentBytes(); r > p.budget+loaders*maxChunk {
		t.Fatalf("resident %d after the storm, over budget %d + %d pinned chunks of %d", r, p.budget, loaders, maxChunk)
	}
}

// TestPagerInvalidatePinnedSweepsColumns: invalidating a table while a
// reader pins some columns of one of its chunks sweeps every other
// column slot of the table out of the ring and the account at once,
// keeps exactly the pinned chunk's columns — still readable — until the
// last release, and then leaves nothing behind.
func TestPagerInvalidatePinnedSweepsColumns(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, _ := pagerFixture(t, 320, 0, reg)
	pinnedCols := []int{1, 3}
	frag, release, err := p.chunkPinned("fact.seg", d, 0, pinnedCols)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.decodeChunk(0, mustReadFrame(t, p, d, 0), d.all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, "fact.seg", d, 1, d.all); err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(p, "fact.seg", d, 2, []int{2}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	e0 := p.entries[chunkKey{"fact", "fact.seg", 0}]
	var pinnedBytes int64
	for _, c := range pinnedCols {
		pinnedBytes += e0.slots[c].size
	}
	p.mu.Unlock()

	p.invalidate("fact")
	p.mu.Lock()
	ring, resident, mapped := len(p.ring), p.resident, len(p.entries)
	for _, s := range p.ring {
		if s.e != e0 {
			t.Errorf("column %d of another chunk survived the invalidation", s.col)
		}
	}
	p.mu.Unlock()
	if ring != len(pinnedCols) || resident != pinnedBytes || mapped != 0 {
		t.Fatalf("after invalidating around a pinned chunk: %d slots, %d bytes, %d mapped entries; want %d, %d, 0",
			ring, resident, mapped, len(pinnedCols), pinnedBytes)
	}
	requireColumnsEqual(t, "pinned across invalidate", frag, want, pinnedCols)

	release()
	p.mu.Lock()
	ring, resident = len(p.ring), p.resident
	p.mu.Unlock()
	if ring != 0 || resident != 0 {
		t.Fatalf("after the last release: %d slots, %d bytes; want none", ring, resident)
	}
	if g := reg.Gauge("storage.pager.resident_bytes").Value(); g != 0 {
		t.Fatalf("resident gauge %v after the last release, want 0", g)
	}
}

// TestPagerClockKeepsPinnedColumns: under sustained pressure the clock
// hand never takes a column of a pinned chunk — it holds exactly the
// columns that were asked for, readable — and once released those
// columns are evicted like any other.
func TestPagerClockKeepsPinnedColumns(t *testing.T) {
	reg := obs.NewRegistry()
	p, d, maxChunk := pagerFixture(t, 640, 0, reg)
	p.budget = 2 * maxChunk
	pinnedCols := []int{1, 2}
	frag, release, err := p.chunkPinned("fact.seg", d, 0, pinnedCols)
	if err != nil {
		t.Fatal(err)
	}
	key := chunkKey{"fact", "fact.seg", 0}
	for pass := 0; pass < 3; pass++ {
		for k := 1; k < len(d.Chunks); k++ {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reg.Counter("storage.pager.evictions").Value() == 0 {
		t.Fatal("no column was evicted; the fixture applies no pressure")
	}
	p.mu.Lock()
	e := p.entries[key]
	held := e != nil && e.n == len(pinnedCols) && e.slots[1].in && e.slots[2].in
	p.mu.Unlock()
	if !held {
		t.Fatal("a column of a pinned chunk was evicted")
	}
	want, err := d.decodeChunk(0, mustReadFrame(t, p, d, 0), d.all, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireColumnsEqual(t, "pinned under pressure", frag, want, pinnedCols)

	release()
	for pass := 0; pass < 3; pass++ {
		for k := 1; k < len(d.Chunks); k++ {
			if _, err := fetch(p, "fact.seg", d, k, d.all); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.mu.Lock()
	_, still := p.entries[key]
	p.mu.Unlock()
	if still {
		t.Fatal("released columns were never evicted under sustained pressure")
	}
}

// mustReadFrame reads chunk k's framed bytes from the pager's segment.
func mustReadFrame(t *testing.T, p *pager, d *chunkedDir, k int) []byte {
	t.Helper()
	enc, err := os.ReadFile(filepath.Join(p.dir, "fact.seg"))
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Chunks[k]
	return enc[ref.Off : ref.Off+ref.Size]
}

// TestChunkDecodeCopiesOutOfFrame pins what lets the pager read every
// fault into one pooled buffer: a decoded fragment keeps nothing that
// points into the frame it came from. Each chunk is decoded from a
// private copy of its frame, the copy is scribbled over, and the
// fragment must still read bit-equal to the source rows — strings,
// and dictionary entries included.
func TestChunkDecodeCopiesOutOfFrame(t *testing.T) {
	tb := multiChunkDB(200).Table("fact")
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	for k, ref := range d.Chunks {
		buf := bytes.Clone(enc[ref.Off : ref.Off+ref.Size])
		frag, err := d.decodeChunk(k, buf, d.all, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xa5
		}
		for r := 0; r < frag.RowCount(); r++ {
			for c := range tb.Columns {
				if g, w := frag.ValueAt(r, c), tb.ValueAt(k*d.ChunkRows+r, c); !g.BitEqual(w) {
					t.Fatalf("chunk %d (%d,%d) = %v after its frame was overwritten, want %v", k, r, c, g, w)
				}
			}
		}
	}
}

// TestChunkDuplicateDictionaryEntry is the focused case of the
// dictionary duplicate check at chunk decode: a chunk whose dictionary
// repeats an entry, under a directory CRC that agrees with it, fails
// naming the duplicate — whether or not the fetch asks for the column
// beside it.
func TestChunkDuplicateDictionaryEntry(t *testing.T) {
	tb := rel.NewTable("t", []rel.Column{{Name: "n", Typ: rel.TInt}, {Name: "tag", Typ: rel.TString}})
	for i, s := range []string{"x", "ab", "y", "ac"} {
		tb.AppendRow([]rel.Value{rel.Int(int64(i)), rel.Str(s)})
	}
	enc, err := EncodeChunkedSegment(tb.Snapshot(), 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeChunkedDir(enc[:chunkedDirLen(enc)])
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Chunks[0]
	blob := bytes.Clone(enc[ref.Off : ref.Off+ref.Size])
	i := bytes.Index(blob, []byte("ac"))
	blob[i+1] = 'b' // the dictionary reads x, ab, y, ab
	d.Chunks[0].CRC = crc32.Checksum(blob, crcTable)
	for _, cols := range [][]int{{1}, {0, 1}} {
		_, err := d.decodeChunk(0, blob, cols, nil)
		if err == nil || !strings.Contains(err.Error(), `"ab" duplicated`) {
			t.Fatalf("columns %v: decode = %v, want the duplicated entry named", cols, err)
		}
	}
	if _, err := d.decodeChunk(0, blob, []int{0}, nil); err != nil {
		t.Fatalf("a fetch that skips the string column does not validate it, but got %v", err)
	}
}

// TestChunkedDirRejectsBadColumnNames: a chunk fault validates the
// columns it adopts one at a time, so the directory is where a segment's
// column names are checked — an empty or a repeated name fails the
// directory, and with it the whole segment.
func TestChunkedDirRejectsBadColumnNames(t *testing.T) {
	for name, tc := range map[string]struct {
		rename func(*rel.TableSnapshot)
		want   string
	}{
		"duplicate": {func(s *rel.TableSnapshot) { s.Columns[2].Col.Name = s.Columns[0].Col.Name }, "duplicate column"},
		"empty":     {func(s *rel.TableSnapshot) { s.Columns[1].Col.Name = "" }, "empty name"},
	} {
		snap := fixtureDB().Table("book").Snapshot()
		tc.rename(snap)
		enc, err := EncodeChunkedSegment(snap, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeChunkedDir(enc[:chunkedDirLen(enc)]); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: directory decode = %v, want an error mentioning %q", name, err, tc.want)
		}
		if _, err := DecodeChunkedSegment(enc); err == nil {
			t.Errorf("%s: a segment whose directory repeats or blanks a column name decoded", name)
		}
	}
}
