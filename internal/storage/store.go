package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/physical"
	"repro/internal/rel"
)

// ErrClosed is returned by every Store operation after Close.
var ErrClosed = errors.New("storage: store is closed")

// ErrStale is wrapped by the error of every read through a ChunkScan,
// and so through a PagedBuilt view, after the store compacted past it.
// The data is still there: a fresh view reads it.
var ErrStale = errors.New("storage: stale view")

// ErrUnsupportedFormat is wrapped by every error that refuses a file for
// its format version: a manifest, segment, chunk, or redo log written by
// an older or a newer build. The message names the version found and
// the one this build reads.
var ErrUnsupportedFormat = errors.New("storage: unsupported format")

// maxRedoBuf is the largest flush buffer a store keeps for the next
// flush; a rare huge group commit encodes into its own.
const maxRedoBuf = 1 << 20

// TypeError refuses a value that column Column of Table, of type Type,
// does not admit (see rel.Column.Admits) in an append: one that does not
// convert losslessly to Type, or a NULL when the column is not Nullable.
// Row is the row's index in the appended batch.
type TypeError struct {
	Table, Column string
	Row           int
	Value         rel.Value
	Type          rel.Type
	Nullable      bool
}

func typeError(table string, c *rel.Column, row int, v rel.Value) *TypeError {
	return &TypeError{Table: table, Column: c.Name, Row: row, Value: v, Type: c.Typ, Nullable: c.Nullable}
}

func (e *TypeError) Error() string {
	decl := (&rel.Column{Typ: e.Type, Nullable: e.Nullable}).TypeDecl()
	return fmt.Sprintf("storage: row %d of %q: %#v does not fit column %s, a %s column", e.Row, e.Table, e.Value, e.Column, decl)
}

// Options configures Save and Open.
type Options struct {
	// Registry receives storage metrics (segment loads, bytes, latency,
	// checksum failures). Nil disables metrics.
	Registry *obs.Registry
	// MappingSQL is the CREATE TABLE rendering of the logical design,
	// recorded in the manifest at Save time for operators. Ignored by
	// Open.
	MappingSQL string
	// MemBudgetBytes caps how many bytes of columnar data the store
	// keeps resident. The store's only cache is the chunk pager, which
	// holds what chunk scans fault and evicts down to this by CLOCK
	// (overshooting by at most one pinned chunk per concurrent reader).
	// Tables the store assembles are read from the segment files, never
	// through the pager, and belong to their callers: they are neither
	// cached nor counted. Zero or less means unlimited — every chunk a
	// scan faults stays resident.
	MemBudgetBytes int64
	// ChunkRows is the rows-per-chunk for segments written by Save: a
	// positive multiple of 64, or zero for DefaultChunkRows; anything
	// else fails Save. Only Save reads it: a segment keeps the chunk size
	// it was saved with, through every compaction.
	ChunkRows int
	// CompactRecords, when positive, auto-compacts the store in the
	// background once the redo log holds at least this many rows. Zero
	// means compaction only runs when Compact is called.
	CompactRecords int
}

// chunkRowsOrDefault resolves the ChunkRows knob.
func (o Options) chunkRowsOrDefault() int {
	if o.ChunkRows == 0 {
		return DefaultChunkRows
	}
	return o.ChunkRows
}

// Store is an opened on-disk store: the verified manifest, the redo
// tail as one columnar table per relation, and a budgeted cache of the
// chunks scans read (the pager).
// Segments are read, checksum-verified, and structurally validated chunk
// by chunk when a caller asks for rows. Every manifest entry is a chunked
// segment and the redo log is batch-framed: Open refuses anything else.
//
// The store keeps no assembled table. Every *rel.Table it hands out —
// from Table, Built, or a PagedBuilt shell's hydration — is read for that
// caller by a segmentRead straight from the segment file plus the redo
// tail committed at that moment, belongs to the caller, and is never touched
// by the store again: later appends and compactions do not show in it.
// Only ChunkScan reads through the pager.
//
// The redo tail is held once, in columnar form: per table, the rows
// committed since the last compaction are one append-only *rel.Table.
// Open fills it from the redo log and each commit extends it, under mu,
// after its fsync. A reader pins the rows committed so far as a prefix
// of it (tailLocked), which later commits do not touch.
type Store struct {
	dir  string
	reg  *obs.Registry
	opts Options

	// flushMu serializes redo flushes and compaction. Lock order is
	// always flushMu before mu.
	flushMu sync.Mutex
	// redoBuf is the buffer each flush encodes its records into, kept
	// across flushes under flushMu and dropped past maxRedoBuf.
	redoBuf []byte

	mu    sync.Mutex
	man   *Manifest
	dirs  map[string]*chunkedDir
	pager *pager
	// tail holds each table's committed redo rows. A table keeps its
	// entry once it has one, emptied by compaction, so a commit never
	// needs the segment directory to extend it.
	tail map[string]*rel.Table
	// redoEnd is the redo log's committed length (where the next
	// record goes); it advances under mu as batches commit.
	redoEnd int64
	// gcCur is the open group-commit batch appenders join until a
	// leader detaches and flushes it.
	gcCur *commitBatch
	// closed fences every operation after Close; set once under both
	// flushMu and mu.
	closed bool

	compacting atomic.Bool
	compactWG  sync.WaitGroup
	// killCompact, when set by tests, is invoked before each step of
	// publishLocked; returning an error simulates a crash at that point.
	killCompact func(step string) error
}

// commitBatch is one group-committed set of appends. Appenders enqueue
// under mu; the first to reach flushMu flushes everyone. flushed and
// err are written and read only under flushMu.
type commitBatch struct {
	runs    []redoRun
	flushed bool
	err     error
}

// encodeTableFile serializes one table as a chunked segment and returns
// the file's directory and chunk bytes, which the file holds back to
// back, plus the manifest entry pinning its facts.
func encodeTableFile(t *rel.Table, file string, chunkRows int) (dir, chunks []byte, e TableEntry, err error) {
	refs, chunks, err := encodeChunks(t.Snapshot(), chunkRows)
	if err != nil {
		return nil, nil, e, err
	}
	dir = encodeChunkedDir(t.Name, t.Parent, t.RowCount(), chunkRows, t.Columns, refs)
	return dir, chunks, segmentEntry(t.Name, t.Parent, file, t.RowCount(), t.Bytes(), chunkRows, dir, int64(len(chunks))), nil
}

// segmentEntry is the manifest entry of a segment file made of dir and
// chunkBytes bytes of chunks after it.
func segmentEntry(name, parent, file string, rows int, bytes int64, chunkRows int, dir []byte, chunkBytes int64) TableEntry {
	return TableEntry{
		Name:      name,
		Parent:    parent,
		File:      file,
		Rows:      rows,
		Bytes:     bytes,
		Size:      int64(len(dir)) + chunkBytes,
		CRC:       crc32.Checksum(dir, crcTable),
		ChunkRows: chunkRows,
		Dir:       int64(len(dir)),
	}
}

// Save writes the built database's base tables, an empty redo log, and
// the manifest into dir (created if needed). The manifest is written
// last via rename: a crash mid-save leaves no readable manifest, so a
// later Open fails cleanly instead of serving a partial store.
//
// Up to GOMAXPROCS tables are encoded and fsynced at once, each by one
// goroutine, and the manifest lists them in table order. Save returns
// only after every table write it started has ended; when tables fail,
// it returns the error of the lowest-numbered one and writes neither the
// redo log nor the manifest, and a panic (a virtual shell in the build)
// is raised again on the caller's goroutine (par.Do).
func Save(dir string, b *engine.Built, opts Options) (*Manifest, error) {
	if b == nil || b.DB == nil {
		return nil, fmt.Errorf("storage: nothing to save (nil build)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating store directory: %w", err)
	}
	written := opts.Registry.Counter("storage.save.bytes_written")
	cr := opts.chunkRowsOrDefault()
	man := &Manifest{
		FormatVersion: ChunkSegmentVersion,
		Design:        b.Config,
		MappingSQL:    opts.MappingSQL,
		RedoFile:      RedoName,
	}
	tables := b.DB.Tables()
	entries := make([]TableEntry, len(tables))
	if err := par.Do(len(tables), runtime.GOMAXPROCS(0), func(i int) error {
		segDir, chunks, entry, err := encodeTableFile(tables[i], fmt.Sprintf("t%04d.seg", i), cr)
		if err != nil {
			return err
		}
		if err := writeFileSync(filepath.Join(dir, entry.File), segDir, chunks); err != nil {
			return err
		}
		written.Add(entry.Size)
		entries[i] = entry
		return nil
	}); err != nil {
		return nil, err
	}
	man.Tables = append(man.Tables, entries...)
	redo := emptyRedoLog()
	if err := writeFileSync(filepath.Join(dir, RedoName), redo); err != nil {
		return nil, err
	}
	written.Add(int64(len(redo)))
	mb, err := encodeManifest(man)
	if err != nil {
		return nil, err
	}
	if err := writeFileRename(dir, ManifestName, mb); err != nil {
		return nil, err
	}
	written.Add(int64(len(mb)))
	return man, nil
}

// Open reads and verifies the manifest and the redo log, and decodes
// every verified record straight into its table's tail, under the
// columns of the table's verified segment directory: a record that does
// not decode under them refuses the store. Table data is not read yet —
// Table, Built, and chunk scans read it when called, chunk by chunk.
// Open writes nothing: a torn redo tail is ignored, counted in
// storage.redo.torn_tail_bytes, and cut off by the next append. A store
// in any format other than the one Save writes — a segment format or a
// redo log version of an earlier or a later build — fails with
// ErrUnsupportedFormat.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	mb, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("storage: opening store %s: %w", dir, err)
	}
	man, err := decodeManifest(mb)
	if err != nil {
		opts.Registry.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	rb, err := os.ReadFile(filepath.Join(dir, man.RedoFile))
	if err != nil {
		return nil, fmt.Errorf("storage: opening redo log: %w", err)
	}
	s := &Store{
		dir:   dir,
		man:   man,
		reg:   opts.Registry,
		opts:  opts,
		dirs:  make(map[string]*chunkedDir),
		pager: newPager(dir, opts.MemBudgetBytes, opts.Registry),
		tail:  make(map[string]*rel.Table),
	}
	var dirErr error // a segment directory counts its own failure
	tailOf := func(name string) (*rel.Table, error) {
		e := man.Table(name)
		if e == nil {
			return nil, fmt.Errorf("storage: redo log references unknown table %q", name)
		}
		var t *rel.Table
		t, dirErr = s.tailTableLocked(e)
		return t, dirErr
	}
	end, err := readRedo(rb, func(body []byte) error { return decodeRedoRecord(body, tailOf) })
	if err != nil {
		if dirErr == nil {
			opts.Registry.Counter("storage.checksum.failures").Inc()
		}
		return nil, err
	}
	s.redoEnd = int64(end)
	opts.Registry.Counter("storage.redo.torn_tail_bytes").Add(int64(len(rb) - end))
	opts.Registry.Gauge("storage.open.ms").Set(float64(time.Since(start).Nanoseconds()) / 1e6)
	return s, nil
}

// Close flushes the open group-commit batch (appenders that already
// joined it get the durable result), fences every subsequent operation
// with ErrClosed, and waits for any background compaction to finish.
// Close is idempotent; the error is the pending flush's outcome.
func (s *Store) Close() error {
	s.flushMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.flushMu.Unlock()
		s.compactWG.Wait()
		return nil
	}
	s.closed = true
	b := s.gcCur
	s.mu.Unlock()
	var err error
	if b != nil && !b.flushed {
		s.flushBatchLocked(b)
		err = b.err
	}
	s.flushMu.Unlock()
	s.compactWG.Wait()
	return err
}

// Manifest returns the verified manifest. After a compaction the store
// serves the new epoch's manifest.
func (s *Store) Manifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// RedoRows returns the number of committed redo rows awaiting
// compaction — the replay cost the next Open pays.
func (s *Store) RedoRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redoRowsLocked()
}

// redoRowsLocked sums the tail tables' row counts.
func (s *Store) redoRowsLocked() int {
	n := 0
	for _, t := range s.tail {
		n += t.RowCount()
	}
	return n
}

// tailLocked pins the rows committed to the named table's tail so far:
// a prefix of its tail table that later commits do not touch, or nil
// when the tail is empty.
func (s *Store) tailLocked(name string) *rel.Table {
	t := s.tail[name]
	if t == nil || t.RowCount() == 0 {
		return nil
	}
	return t.Prefix(t.RowCount())
}

// tailTableLocked returns e's tail table, made empty over the columns of
// e's verified segment directory if the table has none yet.
func (s *Store) tailTableLocked(e *TableEntry) (*rel.Table, error) {
	if t := s.tail[e.Name]; t != nil {
		return t, nil
	}
	d, err := s.chunkedDirLocked(e)
	if err != nil {
		return nil, err
	}
	t := rel.NewTable(e.Name, d.Cols)
	t.Parent = e.Parent
	s.tail[e.Name] = t
	return t, nil
}

// ResidentBytes reports the bytes of columnar data the store keeps
// resident. The first result is always 0 — the store holds no assembled
// table — and survives only for callers of the two-result signature;
// the second is the chunk cache, the one account MemBudgetBytes governs.
func (s *Store) ResidentBytes() (tables, chunks int64) {
	return 0, s.pager.residentBytes()
}

// entryLocked resolves a table name to its manifest entry behind the
// Close fence.
func (s *Store) entryLocked(name string) (*TableEntry, error) {
	if s.closed {
		return nil, ErrClosed
	}
	e := s.man.Table(name)
	if e == nil {
		return nil, fmt.Errorf("storage: no table %q in store %s", name, s.dir)
	}
	return e, nil
}

// Table assembles the named table as of now: its segment, read and
// verified chunk by chunk, plus the committed redo tail. Each call
// returns a fresh table the caller owns. The store lock is held only to
// pin the read (pinLocked); the chunks are read and decoded outside it,
// so calls for several tables assemble side by side.
func (s *Store) Table(name string) (*rel.Table, error) {
	r, err := func() (*segmentRead, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, err := s.entryLocked(name)
		if err != nil {
			return nil, err
		}
		return s.pinLocked(e, 0, s.tailLocked(name))
	}()
	if err != nil {
		return nil, err
	}
	return s.assemble(r)
}

// assemble is the only way a live store's manifest entry becomes a
// whole *rel.Table: a pinned read from chunk 0, timed under
// storage.segment.loads and load_ns.
func (s *Store) assemble(r *segmentRead) (*rel.Table, error) {
	start := time.Now()
	t, err := r.read(s.reg)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("storage.segment.loads").Inc()
	s.reg.Counter("storage.segment.load_ns").Add(time.Since(start).Nanoseconds())
	return t, nil
}

// segmentRead is a read of chunks from.. of a segment plus a redo tail,
// pinned under the store lock: the manifest entry, its verified
// directory, and the segment file opened while the manifest lists it.
// A compaction removes the files it replaces under the lock, and an
// open file stays readable after its removal, so the read itself needs
// no lock.
type segmentRead struct {
	e    *TableEntry
	d    *chunkedDir
	f    *os.File // nil when from is the chunk count
	from int
	tail *rel.Table
}

// pinLocked pins a read of chunks from.. of e's segment plus tail. With
// from at the chunk count it opens no file.
func (s *Store) pinLocked(e *TableEntry, from int, tail *rel.Table) (*segmentRead, error) {
	d, err := s.chunkedDirLocked(e)
	if err != nil {
		return nil, err
	}
	r := &segmentRead{e: e, d: d, from: from, tail: tail}
	if from < len(d.Chunks) {
		if r.f, err = os.Open(filepath.Join(s.dir, e.File)); err != nil {
			s.reg.Counter("storage.read.errors").Inc()
			return nil, fmt.Errorf("storage: reading segment for table %q: %w", e.Name, err)
		}
	}
	return r, nil
}

// read turns the pinned chunks plus the redo tail into a table the
// caller owns, and closes the file: the chunks are read straight from
// the segment file, not through the pager, and go through readChunks'
// verification chain, which joins the tail in as the last part; when it
// is the whole segment, the table must carry the bytes the manifest pins
// plus the tail's. The result shares nothing with the pager, the tail,
// or any other read.
func (r *segmentRead) read(reg *obs.Registry) (*rel.Table, error) {
	var src io.ReaderAt
	if r.f != nil {
		defer r.f.Close()
		src = r.f
	}
	t, err := r.d.readChunks(src, r.from, r.tail, reg)
	if err != nil {
		return nil, err
	}
	var tailBytes int64
	if r.tail != nil {
		tailBytes = r.tail.Bytes()
	}
	if r.from == 0 && t.Bytes() != r.e.Bytes+tailBytes {
		return nil, fmt.Errorf("storage: segment %s decodes to %d bytes, manifest says %d", r.e.File, t.Bytes()-tailBytes, r.e.Bytes)
	}
	return t, nil
}

// chunkedDirLocked returns the verified directory of a chunked
// segment, reading only the directory region of the file. The
// directory must agree with the manifest entry on its row count and
// layout, so a chunk scan refuses a row count an assembly refuses.
func (s *Store) chunkedDirLocked(e *TableEntry) (*chunkedDir, error) {
	if d, ok := s.dirs[e.Name]; ok {
		return d, nil
	}
	f, err := os.Open(filepath.Join(s.dir, e.File))
	if err != nil {
		s.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading segment for table %q: %w", e.Name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		s.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading segment for table %q: %w", e.Name, err)
	}
	if st.Size() != e.Size {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, fmt.Errorf("storage: segment %s is %d bytes, manifest says %d", e.File, st.Size(), e.Size)
	}
	hdr := make([]byte, e.Dir)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		s.reg.Counter("storage.read.errors").Inc()
		return nil, fmt.Errorf("storage: reading segment directory of %s: %w", e.File, err)
	}
	if got := crc32.Checksum(hdr, crcTable); got != e.CRC {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, fmt.Errorf("storage: segment %s directory checksum mismatch: manifest says %08x, file hashes to %08x", e.File, e.CRC, got)
	}
	d, err := decodeChunkedDir(hdr)
	if err != nil {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	if d.Name != e.Name {
		return nil, fmt.Errorf("storage: segment %s holds table %q, manifest says %q", e.File, d.Name, e.Name)
	}
	if d.RowCount != e.Rows || d.ChunkRows != e.ChunkRows || d.DirLen != e.Dir || d.fileSize() != e.Size {
		return nil, fmt.Errorf("storage: segment %s directory (%d rows, chunk size %d, directory %d, file %d bytes) disagrees with manifest (%d, %d, %d, %d)",
			e.File, d.RowCount, d.ChunkRows, d.DirLen, d.fileSize(), e.Rows, e.ChunkRows, e.Dir, e.Size)
	}
	s.reg.Counter("storage.segment.bytes_read").Add(int64(len(hdr)))
	s.dirs[e.Name] = d
	return d, nil
}

// view is the one constructor behind Built and PagedBuilt: a single
// walk over the manifest under s.mu that captures every table's entry
// and pins the redo prefix committed at that instant. Built's view pins
// a read of every table in that one hold of the lock and assembles them
// after it (see assembleAll); a paged view turns each pair into a
// schema-only shell plus the ChunkScan that serves its driver-stage
// scans. A shell hydrates by pinning a read of the same captured pair
// under the lock and assembling it outside, so all the tables of one
// view describe one point in time, and fails with ErrStale once a
// compaction replaced the manifest it was captured from.
func (s *Store) view(paged bool) (*rel.Database, *physical.Config, []*ChunkScan, error) {
	if !paged {
		reads, man, pinErr := s.pinAll()
		if man == nil {
			return nil, nil, nil, pinErr
		}
		tables, err := s.assembleAll(reads)
		if err == nil {
			err = pinErr
		}
		if err != nil {
			return nil, nil, nil, err
		}
		db := rel.NewDatabase()
		for _, t := range tables {
			db.Add(t)
		}
		return db, man.Design, nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, nil, ErrClosed
	}
	db := rel.NewDatabase()
	man := s.man // the shells' staleness fence, as a ChunkScan's
	var scans []*ChunkScan
	for i := range man.Tables {
		e := man.Tables[i] // copy: a shell's loader outlives this call
		tail := s.tailLocked(e.Name)
		cs, err := s.chunkScanLocked(&e, tail)
		if err != nil {
			return nil, nil, nil, err
		}
		// A table's bytes are the sum of its rows', the shape Hydrate's
		// assembly lands on.
		bytes := e.Bytes
		if tail != nil {
			bytes += tail.Bytes()
		}
		db.Add(rel.NewVirtualTable(e.Name, e.Parent, cs.d.Cols, cs.rows, bytes, func() (*rel.Table, error) {
			r, err := func() (*segmentRead, error) {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.closed {
					return nil, ErrClosed
				}
				if s.man != man {
					return nil, fmt.Errorf("%w: hydrating %q: the store compacted; create a new view", ErrStale, e.Name)
				}
				return s.pinLocked(&e, 0, tail)
			}()
			if err != nil {
				return nil, err
			}
			return s.assemble(r)
		}))
		scans = append(scans, cs)
	}
	return db, man.Design, scans, nil
}

// pinAll pins, in one hold of the lock, a read of every table of the
// manifest with the redo prefix committed at that instant, in manifest
// order. It stops at the first table it cannot pin and returns the
// reads before it with that error; man is nil when the store is closed.
func (s *Store) pinAll() (reads []*segmentRead, man *Manifest, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	man = s.man
	for i := range man.Tables {
		e := &man.Tables[i]
		r, err := s.pinLocked(e, 0, s.tailLocked(e.Name))
		if err != nil {
			return reads, man, err
		}
		reads = append(reads, r)
	}
	return reads, man, nil
}

// assembleAll assembles pinned reads, up to GOMAXPROCS at once
// (par.Do), outside the store lock. On an error it reports the
// lowest-numbered read's, as a sequential loop would, and closes the
// files of the reads it did not start.
func (s *Store) assembleAll(reads []*segmentRead) ([]*rel.Table, error) {
	tables := make([]*rel.Table, len(reads))
	err := par.Do(len(reads), runtime.GOMAXPROCS(0), func(i int) (err error) {
		r := reads[i]
		reads[i] = nil
		tables[i], err = s.assemble(r)
		return err
	})
	for _, r := range reads {
		if r != nil && r.f != nil {
			r.f.Close()
		}
	}
	return tables, err
}

// Built assembles the full database and rebuilds the physical design
// the store was saved with — indexes and materialized views are
// reconstructed from the base tables, vertical partitions are checked
// against their columns — restoring warm serving after a restart. The
// result is a point-in-time view that needs nothing from the store
// afterwards: it keeps answering, with the rows it was built over, across
// later appends, compactions, and Close.
func (s *Store) Built() (*engine.Built, error) {
	return s.built(false, "storage.built.ms")
}

// PagedBuilt is Built with query-time paging: every table enters the
// database as a schema-only virtual shell whose driver-stage scans pull
// chunks through the pager (a registered ChunkScan source), so a scan
// query's peak resident bytes follow Options.MemBudgetBytes instead of
// table size; a partition scan is a scan of its base table and pages the
// same way. Accesses that genuinely need the whole table — index and
// view builds, join build sides, EXISTS probes, index seeks — hydrate
// the shell on demand by assembling the same point-in-time row set
// (segment + the redo tail committed when PagedBuilt ran); the hydrated
// table belongs to the Built, outside the budget.
//
// Unlike Built, the view keeps reading from the store, and it turns
// stale once the store compacts: its chunk scans and hydrations then
// fail with an error wrapping ErrStale rather than serving rows the Built's row-count snapshot does not
// cover — call PagedBuilt again for a fresh view. Appends do not stale
// it: it keeps serving the rows it was created over, and a fresh view
// sees the new ones. Results are bit-identical to Built over the
// same store state: both run the engine's one scan driver, Built over
// resident one-chunk sources, and engine.ExecuteReference is the oracle
// for both.
func (s *Store) PagedBuilt() (*engine.Built, error) {
	return s.built(true, "storage.paged_built.ms")
}

// built rebuilds the physical design over a view and registers the
// view's chunk scans; gauge names the build-time metric.
func (s *Store) built(paged bool, gauge string) (*engine.Built, error) {
	start := time.Now()
	db, design, scans, err := s.view(paged)
	if err != nil {
		return nil, err
	}
	// The build runs outside s.mu: it hydrates the shells its structures
	// need, and hydration takes the lock.
	b, err := engine.Build(db, design)
	if err != nil {
		return nil, fmt.Errorf("storage: rebuilding physical design: %w", err)
	}
	for _, cs := range scans {
		b.SetScanSource(cs.table, cs)
	}
	s.reg.Gauge(gauge).Set(float64(time.Since(start).Nanoseconds()) / 1e6)
	return b, nil
}

// Append durably logs one row append, so tables assembled from here on
// — and a later Open of the same directory, which replays it — land on
// the same row count. Concurrent appenders share one fsync
// (group commit).
func (s *Store) Append(table string, row []rel.Value) error {
	return s.AppendBatch(table, [][]rel.Value{row})
}

// AppendBatch durably logs a batch of row appends under a single
// fsync. Batches from concurrent appenders that queue while a flush is
// in progress coalesce into the next fsync. Each value is logged as its
// column's type: one that converts losslessly is converted (see
// rel.Value.CoerceExact), and any other, or a NULL in a NOT NULL column,
// refuses the whole batch with a *TypeError before anything is logged.
// The rows are read in place until the batch is flushed, which happens
// before AppendBatch returns: the caller must not modify them during the
// call, and may reuse them afterwards, since none is retained (a
// converted value goes into a copy of its row, and of the batch).
func (s *Store) AppendBatch(table string, rows [][]rel.Value) error {
	if len(rows) == 0 {
		return nil
	}
	// The tail table carries the columns of the verified segment
	// directory, so checking a row never assembles the table; and it
	// exists from here on, so the commit can extend it after its fsync.
	s.mu.Lock()
	var tail *rel.Table
	e, err := s.entryLocked(table)
	if err == nil {
		tail, err = s.tailTableLocked(e)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	run := redoRun{table: table, cols: tail.Columns, rows: rows}
	cloned := false // run.rows is a copy of rows
	for i, row := range rows {
		if len(row) != len(run.cols) {
			s.mu.Unlock()
			return fmt.Errorf("storage: append to %q has %d values, table has %d columns", table, len(row), len(run.cols))
		}
		copied := false
		for ci, v := range row {
			c := &run.cols[ci]
			cv, ok := v.CoerceExact(c.Typ)
			if !ok || !c.Admits(cv) {
				s.mu.Unlock()
				return typeError(table, c, i, v)
			}
			if !v.Fits(c.Typ) {
				if !copied {
					if !cloned {
						run.rows, cloned = slices.Clone(rows), true
					}
					run.rows[i], copied = slices.Clone(row), true
				}
				run.rows[i][ci] = cv
			}
		}
	}
	if s.gcCur == nil {
		s.gcCur = &commitBatch{}
	}
	b := s.gcCur
	b.runs = append(b.runs, run)
	s.mu.Unlock()

	s.flushMu.Lock()
	if !b.flushed {
		s.flushBatchLocked(b)
	}
	err = b.err
	s.flushMu.Unlock()

	s.maybeCompactAsync()
	return err
}

// flushBatchLocked detaches and durably writes the open commit batch.
// Caller holds flushMu; b is the batch the caller joined, which is
// still the open batch (batches are only flushed under flushMu).
func (s *Store) flushBatchLocked(b *commitBatch) {
	s.mu.Lock()
	if s.gcCur == b {
		s.gcCur = nil
	}
	end := s.redoEnd
	path := filepath.Join(s.dir, s.man.RedoFile)
	s.mu.Unlock()

	nrows := 0
	for _, run := range b.runs {
		nrows += len(run.rows)
	}
	s.redoBuf = encodeRedoBatch(s.redoBuf[:0], b.runs)
	newEnd, err := writeRedoBatch(path, s.redoBuf, end)
	if cap(s.redoBuf) > maxRedoBuf {
		s.redoBuf = nil
	}
	b.flushed = true
	b.err = err
	if err != nil {
		return
	}
	s.reg.Counter("storage.redo.group_commits").Inc()
	s.reg.Counter("storage.redo.records_appended").Add(int64(nrows))

	s.mu.Lock()
	s.redoEnd = newEnd
	for _, run := range b.runs {
		t := s.tail[run.table]
		for _, row := range run.rows {
			t.AppendRow(row)
		}
	}
	s.mu.Unlock()
}

// maybeCompactAsync starts a background compaction when the redo log
// has crossed the configured threshold and none is running. The closed
// check and the WaitGroup.Add happen atomically under s.mu: Close sets
// closed under s.mu before it calls compactWG.Wait, so an appender
// whose batch Close flushed can never spawn a compaction after Close
// returned (and every Add is ordered before the Wait it must gate).
func (s *Store) maybeCompactAsync() {
	if s.opts.CompactRecords <= 0 {
		return
	}
	s.mu.Lock()
	due := s.redoRowsLocked() >= s.opts.CompactRecords && !s.closed
	if !due || !s.compacting.CompareAndSwap(false, true) {
		s.mu.Unlock()
		return
	}
	s.compactWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		if err := s.compact(false); err != nil {
			s.reg.Counter("storage.compact.failures").Inc()
		}
	}()
}

// Compact folds the redo log back into fresh segments: every table
// with a redo tail is rewritten (with its tail's rows) into the next
// epoch's segment file, at the chunk size it was saved with, and the
// epoch is published by publishLocked.
func (s *Store) Compact() error { return s.compact(true) }

// compact is Compact; without the Close fence it is the background
// compaction, which may complete during shutdown so that one triggered
// before Close keeps the bounded-redo-tail promise even when Close
// races it to flushMu.
func (s *Store) compact(fence bool) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if fence && s.closed {
		return ErrClosed
	}
	start := time.Now()
	folded := s.redoRowsLocked()
	if folded == 0 {
		return nil
	}
	if err := s.publishLocked(); err != nil {
		return err
	}
	s.reg.Counter("storage.compact.runs").Inc()
	s.reg.Counter("storage.compact.records_folded").Add(int64(folded))
	s.reg.Gauge("storage.compact.ms").Set(float64(time.Since(start).Nanoseconds()) / 1e6)
	return nil
}

// publishLocked moves the store to its next epoch for compaction: every
// table with a redo tail is written with it to a new segment file by
// foldTailLocked, and every other table's file carries over unchanged.
// The new segment files are written first, then a fresh empty redo log,
// then the new manifest is published via temp-file+rename — the atomic
// switch-over. A crash anywhere before the rename leaves the old
// manifest pointing at the old files, so the store reopens at the old
// epoch with its full redo tail; a crash after it reopens at the new
// one with an empty tail. Stray files from an unfinished epoch are
// ignored by Open, which only reads what the manifest lists. Caller
// holds flushMu and mu.
func (s *Store) publishLocked() error {
	step := func(name string) error {
		if s.killCompact != nil {
			return s.killCompact(name)
		}
		return nil
	}
	epoch := s.man.Epoch + 1
	newMan := &Manifest{
		FormatVersion: ChunkSegmentVersion,
		Epoch:         epoch,
		Design:        s.man.Design,
		MappingSQL:    s.man.MappingSQL,
		RedoFile:      fmt.Sprintf("redo.e%04d.log", epoch),
	}
	written := s.reg.Counter("storage.save.bytes_written")
	var obsolete, rewritten []string
	for i := range s.man.Tables {
		e := s.man.Tables[i]
		tail := s.tail[e.Name]
		if tail == nil || tail.RowCount() == 0 {
			newMan.Tables = append(newMan.Tables, e)
			continue
		}
		entry, err := s.foldTailLocked(&e, tail, fmt.Sprintf("t%04d.e%04d.seg", i, epoch), step)
		if err != nil {
			return err
		}
		written.Add(entry.Size)
		obsolete = append(obsolete, e.File)
		rewritten = append(rewritten, e.Name)
		newMan.Tables = append(newMan.Tables, entry)
	}
	if err := step("redo"); err != nil {
		return err
	}
	redo := emptyRedoLog()
	if err := writeFileSync(filepath.Join(s.dir, newMan.RedoFile), redo); err != nil {
		return err
	}
	written.Add(int64(len(redo)))
	if err := step("manifest"); err != nil {
		return err
	}
	mb, err := encodeManifest(newMan)
	if err != nil {
		return err
	}
	if err := writeFileRename(s.dir, ManifestName, mb); err != nil {
		return err
	}
	written.Add(int64(len(mb)))

	// The rename committed the new epoch; bring the in-memory state to
	// it before anything can fail, so a live store never straddles
	// epochs.
	obsolete = append(obsolete, s.man.RedoFile)
	s.man = newMan
	s.redoEnd = redoHeaderSize
	for _, name := range rewritten {
		old := s.tail[name] // pinned prefixes keep its rows
		s.tail[name] = rel.NewTable(name, old.Columns)
		s.tail[name].Parent = old.Parent
		delete(s.dirs, name)
		s.pager.invalidate(name)
	}

	// Old-epoch files are garbage now; removal is best-effort (a crash
	// that leaves them behind costs disk, not correctness).
	if err := step("cleanup"); err != nil {
		return err
	}
	for _, f := range obsolete {
		os.Remove(filepath.Join(s.dir, f))
	}
	return nil
}

// foldTailLocked writes table e with its redo tail folded in to the
// segment file named file and returns the file's manifest entry. The
// segment keeps e's chunk size, so every full chunk of e's file is
// already what an encoding of the folded table would write there: those
// bytes are copied from the old file by copyChunks. Only the last,
// partial chunk is read (a segmentRead from the first chunk that is not
// full, so concatenated with the tail) and encoded from its first row
// on. The entry's rows and bytes are e's plus the tail's. step is
// publishLocked's killpoint hook. Caller holds mu; on error no file is
// left behind.
func (s *Store) foldTailLocked(e *TableEntry, tail *rel.Table, file string, step func(string) error) (TableEntry, error) {
	d, err := s.chunkedDirLocked(e)
	if err != nil {
		return TableEntry{}, err
	}
	full := e.Rows / d.ChunkRows
	r, err := s.pinLocked(e, full, tail)
	if err != nil {
		return TableEntry{}, err
	}
	last, err := r.read(s.reg)
	if err != nil {
		return TableEntry{}, err
	}
	if err := step("segment:" + e.Name); err != nil {
		return TableEntry{}, err
	}
	refs, chunks, err := encodeChunks(last.Snapshot(), d.ChunkRows)
	if err != nil {
		return TableEntry{}, err
	}
	kept := d.Chunks[:full]
	rows := e.Rows + tail.RowCount()
	dir := encodeChunkedDir(d.Name, d.Parent, rows, d.ChunkRows, d.Cols, slices.Concat(kept, refs))
	var keptBytes int64
	for _, ref := range kept {
		keptBytes += ref.Size
	}
	bytes := e.Bytes + tail.Bytes() // a table's bytes are the sum of its rows'
	path := filepath.Join(s.dir, file)
	err = writeSync(path, func(w *os.File) error {
		if _, err := w.Write(dir); err != nil {
			return err
		}
		if err := s.copyChunks(w, e, kept); err != nil {
			return err
		}
		_, err := w.Write(chunks)
		return err
	})
	if err != nil {
		os.Remove(path)
		return TableEntry{}, err
	}
	s.reg.Counter("storage.segment.bytes_read").Add(keptBytes)
	return segmentEntry(e.Name, e.Parent, file, rows, bytes, d.ChunkRows, dir, keptBytes+int64(len(chunks))), nil
}

// copyChunks copies the chunks refs of e's segment, which lie back to
// back in the file, to w through one small buffer, and fails on the
// first chunk whose bytes do not hash to its directory CRC (counted
// under storage.checksum.failures) or cannot be read whole (under
// storage.read.errors).
func (s *Store) copyChunks(w io.Writer, e *TableEntry, refs []chunkRef) error {
	src, err := os.Open(filepath.Join(s.dir, e.File))
	if err != nil {
		s.reg.Counter("storage.read.errors").Inc()
		return fmt.Errorf("storage: reading segment for table %q: %w", e.Name, err)
	}
	defer src.Close()
	buf := make([]byte, 64<<10)
	for k, ref := range refs {
		crc := uint32(0)
		for off := int64(0); off < ref.Size; {
			part := buf[:min(int64(len(buf)), ref.Size-off)]
			if _, err := src.ReadAt(part, ref.Off+off); err != nil {
				s.reg.Counter("storage.read.errors").Inc()
				return fmt.Errorf("storage: reading chunk %d of %s: %w", k, e.File, err)
			}
			crc = crc32.Update(crc, crcTable, part)
			if _, err := w.Write(part); err != nil {
				return err
			}
			off += int64(len(part))
		}
		if crc != ref.CRC {
			s.reg.Counter("storage.checksum.failures").Inc()
			return fmt.Errorf("storage: chunk %d of %s checksum mismatch: directory says %08x, copied bytes hash to %08x", k, e.File, ref.CRC, crc)
		}
	}
	return nil
}

// writeFileSync writes parts to a new file back to back and fsyncs it
// before close.
func writeFileSync(path string, parts ...[]byte) error {
	return writeSync(path, func(f *os.File) error {
		for _, p := range parts {
			if _, err := f.Write(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeSync creates path, lets write fill it, and fsyncs it before
// close.
func writeSync(path string, write func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("storage: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: syncing %s: %w", path, err)
	}
	return f.Close()
}

// writeFileRename writes data to a temp file in dir, syncs it, and
// renames it over name — the atomic-publish step that makes the
// manifest the commit point of Save and Compact.
func writeFileRename(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: creating temp manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: writing temp manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: syncing temp manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: closing temp manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("storage: publishing manifest: %w", err)
	}
	return nil
}
