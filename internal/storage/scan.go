package storage

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/rel"
)

// ChunkScan is a storage-backed engine.ScanSource: it serves one
// chunked table chunk by chunk through the pager, so a driver-stage
// scan faults, filters, and releases one verified chunk per worker at a
// time instead of assembling the table — peak scan memory follows
// Options.MemBudgetBytes (plus one pinned chunk per worker), not table
// size. The redo tail committed at creation time is overlaid as a
// final in-memory chunk, so the scanned row set is bit-identical to
// the assembled table: segment rows in chunk order, then replayed
// appends in commit order.
//
// A ChunkScan is a point-in-time view. Every Chunk call re-checks the
// store under its lock and fails — never serves stale rows — once the
// store has moved on: Close fences with ErrClosed, and an append to
// the table or a compaction (which rewrites the segment file) makes
// the scan stale. Chunk is safe for concurrent use by morsel workers;
// each acquired chunk is pinned against eviction until its release
// runs, which is what keeps the budget overshoot bounded to one chunk
// per worker.
type ChunkScan struct {
	s     *Store
	man   *Manifest // staleness fence: the manifest epoch at creation
	redoN int       // committed redo rows for this table at creation
	table string
	file  string
	d     *chunkedDir
	spans [][2]int
	rows  int
	// overlay is the redo tail replayed into a private in-memory table,
	// served as the final chunk; nil when the tail is empty.
	overlay *rel.Table
}

// ChunkScan returns a chunk-granular scan source for the named table,
// which must be stored in the chunked segment format. Register it on a
// Built (engine.Built.SetScanSource) to bound driver-stage scan memory;
// Store.PagedBuilt does both for every chunked table.
func (s *Store) ChunkScan(name string) (*ChunkScan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	e := s.man.Table(name)
	if e == nil {
		return nil, fmt.Errorf("storage: no table %q in store %s", name, s.dir)
	}
	if e.ChunkRows <= 0 {
		return nil, fmt.Errorf("storage: table %q uses the whole-table segment format; chunk scans need a chunked segment", name)
	}
	d, err := s.chunkedDirLocked(e)
	if err != nil {
		return nil, err
	}
	cs := &ChunkScan{
		s:     s,
		man:   s.man,
		redoN: len(s.redo[name]),
		table: name,
		file:  e.File,
		d:     d,
	}
	lo := 0
	for _, ref := range d.Chunks {
		cs.spans = append(cs.spans, [2]int{lo, lo + ref.Rows})
		lo += ref.Rows
	}
	if tail := s.redo[name]; len(tail) > 0 {
		ov := rel.NewTable(name, d.Cols)
		ov.Parent = e.Parent
		if err := replayRedo(name, len(d.Cols), tail, ov.AppendRow); err != nil {
			return nil, err
		}
		cs.overlay = ov
		cs.spans = append(cs.spans, [2]int{lo, lo + ov.RowCount()})
		lo += ov.RowCount()
	}
	cs.rows = lo
	return cs, nil
}

// Columns returns the table's column descriptors.
func (cs *ChunkScan) Columns() []rel.Column { return cs.d.Cols }

// RowCount returns the total rows the scan covers (segment + redo tail).
func (cs *ChunkScan) RowCount() int { return cs.rows }

// NumChunks returns the number of chunks, counting the redo-tail
// overlay as one.
func (cs *ChunkScan) NumChunks() int { return len(cs.spans) }

// ChunkSpan returns the global row range [lo, hi) chunk k covers.
func (cs *ChunkScan) ChunkSpan(k int) (int, int) { return cs.spans[k][0], cs.spans[k][1] }

// check fails once the store has moved past the scan's point in time.
func (cs *ChunkScan) check() error {
	cs.s.mu.Lock()
	defer cs.s.mu.Unlock()
	if cs.s.closed {
		return ErrClosed
	}
	if cs.s.man != cs.man || len(cs.s.redo[cs.table]) != cs.redoN {
		return fmt.Errorf("storage: chunk scan of %q is stale: the store moved on (append or compaction); create a new scan", cs.table)
	}
	return nil
}

// Chunk returns chunk k as a resident read-only fragment plus its
// release, which the caller invokes once (a release with no pin
// outstanding is a no-op; see pager.chunkPinned). Segment chunks come
// back pinned, as the table the pager caches: the verification chain
// (CRC → bounds-checked decode → structural validation) ran once at
// fault time and a hit re-does none of it. The fragment is shared by
// every scan that holds it, so callers read its vectors in place
// (typed accessors, ReadRowInto) and must not call Rows() on it — the
// row view would outlive the pin and escape the pager's residency
// account. The overlay chunk is already resident and its release is a
// no-op.
func (cs *ChunkScan) Chunk(k int) (*rel.Table, func(), error) {
	if err := cs.check(); err != nil {
		return nil, nil, err
	}
	if cs.overlay != nil && k == len(cs.spans)-1 {
		return cs.overlay, func() {}, nil
	}
	return cs.s.pager.chunkPinned(cs.file, cs.d, k)
}

// assembleEntry assembles one table entry — segment rows plus the given
// redo tail — bypassing the store's assembled-table cache. PagedBuilt's
// hydration loaders use it so a hydrated shell never aliases the cache:
// a later Append mutates the cached table, and sharing vectors with it
// would silently mutate a point-in-time view (the shell instead fails
// loudly at Hydrate if the entry no longer decodes to its declared
// shape).
func (s *Store) assembleEntry(e *TableEntry, tail []redoRecord) (*rel.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.assembleLocked(e, tail)
}

// PagedBuilt is Built with query-time paging: every chunked table
// enters the database as a schema-only virtual shell whose driver-stage
// scans pull chunks through the pager (a registered ChunkScan source),
// so a scan query's peak resident bytes follow Options.MemBudgetBytes
// instead of table size. Accesses that genuinely need the whole table —
// index, view, and partition builds, join build sides, EXISTS probes,
// index seeks — hydrate the shell on demand through a private assembly
// of the same point-in-time row set (segment + the redo tail committed
// when PagedBuilt ran). Version-1 whole-table segments cannot be paged
// and load assembled, as in Built.
//
// The returned Built is a point-in-time view: after an append or a
// compaction, chunk scans and hydrations fail with a staleness error
// rather than serving rows the Built's generation snapshot does not
// cover — call PagedBuilt again for a fresh view. Results are
// bit-identical to Built over the same store state: both run the
// engine's one scan driver, Built over resident one-chunk sources, and
// engine.ExecuteReference is the oracle for both.
func (s *Store) PagedBuilt() (*engine.Built, error) {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	design := s.man.Design
	db := rel.NewDatabase()
	type pagedTable struct {
		name string
		rows int
	}
	var chunked []pagedTable
	var loadErr error
	for i := range s.man.Tables {
		e := s.man.Tables[i] // copy: the loader must survive manifest swaps
		if e.ChunkRows <= 0 {
			t, err := s.tableLoadLocked(e.Name)
			if err != nil {
				loadErr = err
				break
			}
			db.Add(t)
			continue
		}
		d, err := s.chunkedDirLocked(&e)
		if err != nil {
			loadErr = err
			break
		}
		tail := s.redo[e.Name] // appends only ever extend; the slice header pins our prefix
		rows, gen, bytes := e.Rows, e.Generation, e.Bytes
		// rel.RowBytes and the per-append generation bump are AppendRow's
		// own accounting, so the shell's declared shape matches what
		// Hydrate's replay lands on exactly.
		loadErr = replayRedo(e.Name, len(d.Cols), tail, func(row []rel.Value) {
			rows++
			gen++
			bytes += rel.RowBytes(row)
		})
		if loadErr != nil {
			break
		}
		entry, tailAt := e, tail
		db.Add(rel.NewVirtualTable(e.Name, e.Parent, d.Cols, rows, gen, bytes,
			func() (*rel.Table, error) { return s.assembleEntry(&entry, tailAt) }))
		chunked = append(chunked, pagedTable{e.Name, rows})
	}
	s.mu.Unlock()
	if loadErr != nil {
		return nil, loadErr
	}
	b, err := engine.Build(db, design)
	if err != nil {
		return nil, fmt.Errorf("storage: rebuilding physical design: %w", err)
	}
	for _, pt := range chunked {
		src, err := s.ChunkScan(pt.name)
		if err != nil {
			return nil, err
		}
		// The store lock was released for engine.Build; an append that
		// slipped in would hand us a source covering more rows than the
		// shell declares. Fail with the staleness contract instead of
		// returning a Built that errors confusingly at prepare time.
		if src.RowCount() != pt.rows {
			return nil, fmt.Errorf("storage: store moved on while building paged view of %q (%d rows now, %d at snapshot); retry PagedBuilt",
				pt.name, src.RowCount(), pt.rows)
		}
		b.SetScanSource(pt.name, src)
	}
	s.reg.Gauge("storage.paged_built.ms").Set(float64(time.Since(start).Nanoseconds()) / 1e6)
	return b, nil
}
