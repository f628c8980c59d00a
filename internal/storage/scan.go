package storage

import (
	"fmt"

	"repro/internal/rel"
)

// ChunkScan is a storage-backed engine.ScanSource: it serves one
// table chunk by chunk through the pager, so a driver-stage
// scan faults, filters, and releases one verified chunk per worker at a
// time instead of assembling the table — peak scan memory follows
// Options.MemBudgetBytes (plus one pinned chunk per worker), not table
// size. The redo tail committed at creation time is overlaid as a
// final in-memory chunk, a prefix of the store's tail table that pins
// those rows, so the scanned row set is bit-identical to the assembled
// table: segment rows in chunk order, then appends in commit order.
//
// A ChunkScan is a point-in-time view: later appends do not show in it,
// and it keeps serving its creation-time rows. It turns stale once the
// store compacts (which rewrites the segment file): every fetch
// re-checks the store under its lock and fails — never serves stale
// rows — after a compaction, and Close fences with ErrClosed. Fetches
// are safe for concurrent use by morsel workers; each
// acquired chunk is pinned against eviction until its release runs,
// which is what keeps the budget overshoot bounded to one chunk per
// worker.
type ChunkScan struct {
	s     *Store
	man   *Manifest // staleness fence: the manifest epoch at creation
	table string
	file  string
	d     *chunkedDir
	spans [][2]int
	rows  int
	// overlay is the pinned prefix of the redo tail, served as the final
	// chunk; nil when the tail is empty.
	overlay *rel.Table
}

// ChunkScan returns a chunk-granular scan source for the named table.
// Register it on a Built (engine.Built.SetScanSource) to bound
// driver-stage scan memory; Store.PagedBuilt does both for every table.
func (s *Store) ChunkScan(name string) (*ChunkScan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.entryLocked(name)
	if err != nil {
		return nil, err
	}
	return s.chunkScanLocked(e, s.tailLocked(name))
}

// chunkScanLocked builds the scan of an entry and a pinned redo tail
// (nil for none): the staleness fence, the chunk spans, and the tail as
// an overlay.
func (s *Store) chunkScanLocked(e *TableEntry, tail *rel.Table) (*ChunkScan, error) {
	d, err := s.chunkedDirLocked(e)
	if err != nil {
		return nil, err
	}
	cs := &ChunkScan{
		s:       s,
		man:     s.man,
		table:   e.Name,
		file:    e.File,
		d:       d,
		overlay: tail,
	}
	lo := 0
	for _, ref := range d.Chunks {
		cs.spans = append(cs.spans, [2]int{lo, lo + ref.Rows})
		lo += ref.Rows
	}
	if tail != nil {
		cs.spans = append(cs.spans, [2]int{lo, lo + tail.RowCount()})
		lo += tail.RowCount()
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

// check fails once the store has closed or compacted since the scan was
// created.
func (cs *ChunkScan) check() error {
	cs.s.mu.Lock()
	defer cs.s.mu.Unlock()
	if cs.s.closed {
		return ErrClosed
	}
	if cs.s.man != cs.man {
		return fmt.Errorf("%w: chunk scan of %q: the store compacted; create a new scan", ErrStale, cs.table)
	}
	return nil
}

// Chunk is ChunkColumns for every column of the table.
func (cs *ChunkScan) Chunk(k int) (*rel.Table, func(), error) {
	return cs.ChunkColumns(k, cs.d.all)
}

// ChunkColumns returns chunk k as a resident read-only fragment holding
// at least the columns cols (ascending column indices), plus its
// release, which the caller invokes once (a release with no pin
// outstanding is a no-op; see pager.chunkPinned). Segment chunks come
// back pinned, as the fragment the pager caches: the verification chain
// (CRC → bounds-checked walk → decode and structural validation of the
// columns it lacked) ran at fault time and a hit re-does none of it. The
// fragment is shared by every scan that holds it, so callers read the
// columns they asked for in place (typed accessors, ValueAt) — any other
// column may be absent — and must not call Rows() on it: the copy would
// outlive the pin and escape the pager's residency account. The overlay
// chunk is already resident, every column of it, and its release is a
// no-op.
func (cs *ChunkScan) ChunkColumns(k int, cols []int) (*rel.Table, func(), error) {
	if err := cs.check(); err != nil {
		return nil, nil, err
	}
	if cs.overlay != nil && k == len(cs.spans)-1 {
		return cs.overlay, func() {}, nil
	}
	return cs.s.pager.chunkPinned(cs.file, cs.d, k, cols)
}
