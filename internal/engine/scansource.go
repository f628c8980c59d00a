package engine

import (
	"fmt"

	"repro/internal/rel"
)

// ScanSource feeds a driver-stage table scan chunk by chunk, so a
// scan's peak resident memory is bounded by the source's paging policy
// (the storage layer backs one with its CLOCK-budgeted pager) rather
// than by table size. Every plain table scan runs through one: a table
// with no registered source is wrapped as a single resident chunk (see
// tableSource), so there is one scan driver whatever backs the rows.
//
// A source describes a fixed point-in-time row set: RowCount and the
// chunk spans never change after registration, and results must be
// bit-identical to ExecuteReference over the same rows — the
// row-at-a-time executor is the equivalence oracle for every source.
// ChunkColumns, the one fetch the executor makes, returns a resident
// fragment covering rows [lo, hi) of the table with at least the
// columns the scan reads, plus a release callback; the fragment is only
// valid until release, which lets the source unpin or evict it, and may
// be shared with other scans — the executor reads the columns it asked
// for in place (kernels over a batch of row ids, then the projected
// columns of the rows that reach the sink copied into the result) and
// no others, so a source may leave the rest absent (rel.NewFragment),
// and nothing row-shaped hangs off a fragment and no row id or
// reference to its vectors outlives the release. Fetches must be safe for concurrent
// calls (morsel workers pull chunks independently) and should return an
// error — not stale data — when the backing store has moved on.
type ScanSource interface {
	// Columns returns the table's column descriptors, in table order.
	Columns() []rel.Column
	// RowCount returns the total number of rows the source covers.
	RowCount() int
	// NumChunks returns the number of chunks.
	NumChunks() int
	// ChunkSpan returns the global row range [lo, hi) chunk k covers.
	// Chunks are contiguous and in row order: chunk 0 starts at 0, each
	// chunk starts where the previous one ended, and the last ends at
	// RowCount().
	ChunkSpan(k int) (lo, hi int)
	// Chunk returns chunk k as a resident read-only table fragment whose
	// row r corresponds to global row ChunkSpan(k).lo + r, with every
	// column resident, plus a release callback the caller must invoke
	// once, when done with the fragment.
	Chunk(k int) (*rel.Table, func(), error)
	// ChunkColumns is Chunk for the columns cols alone: a non-empty list
	// of ascending column indices that must be resident in the fragment;
	// any other column may be absent.
	ChunkColumns(k int, cols []int) (*rel.Table, func(), error)
}

// SetScanSource registers a chunk source for driver-stage scans of the
// named base table. Its scans, partition scans included, then pull
// chunks from the source instead of materializing the table's rows;
// every other access to the table — seeks, join build sides, EXISTS
// probes, index/view builds — still hydrates the full table. Register
// sources after Build and before Prepare.
func (b *Built) SetScanSource(table string, src ScanSource) {
	if b.sources == nil {
		b.sources = make(map[string]ScanSource)
	}
	b.sources[table] = src
}

// ScanSource returns the registered chunk source for a table, or nil.
func (b *Built) ScanSource(table string) ScanSource { return b.sources[table] }

// tableSource serves a resident table as a one-chunk ScanSource: the
// chunk spans every row, is the table itself, and needs no release.
type tableSource struct{ t *rel.Table }

func (s tableSource) Columns() []rel.Column    { return s.t.Columns }
func (s tableSource) RowCount() int            { return s.t.RowCount() }
func (s tableSource) NumChunks() int           { return 1 }
func (s tableSource) ChunkSpan(int) (int, int) { return 0, s.t.RowCount() }
func (s tableSource) Chunk(int) (*rel.Table, func(), error) {
	return s.t, func() {}, nil
}
func (s tableSource) ChunkColumns(int, []int) (*rel.Table, func(), error) {
	return s.t, func() {}, nil
}

// driverSource resolves the chunk source a scan of t pulls from, where t
// is what the access to name resolved to: the registered source when t
// is the base table it was registered for, otherwise t itself, hydrated,
// as one resident chunk (views and unregistered tables).
func (b *Built) driverSource(name string, t *rel.Table) (ScanSource, error) {
	if src := b.sources[name]; src != nil && t == b.DB.Table(name) {
		if src.RowCount() != t.RowCount() {
			return nil, fmt.Errorf("engine: scan source for %s covers %d rows, table declares %d",
				name, src.RowCount(), t.RowCount())
		}
		return src, nil
	}
	if err := t.Hydrate(); err != nil {
		return nil, err
	}
	return tableSource{t}, nil
}
