package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/rel"
)

// A legacy store predates the chunked format: its manifest lists at
// least one whole-table (SegmentVersion) segment, or its redo log is
// framed one row per record (RedoVersion). Open converts such a store
// before returning it, so this file is the only non-test code that reads
// either: DecodeSegment and the version-1 arm of readRedo are read-only
// decoders kept for it, the golden files, and the fuzz targets.

// convertLegacyLocked does nothing to a current store. A legacy one it
// rewrites in the current formats and publishes as the next epoch:
// every whole-table segment, and every table with a redo tail, becomes
// a chunked segment holding its replayed rows; chunked tables without a
// tail carry over; the new redo log is empty and batch-framed. The
// caller is Open, before anyone else can see the store.
func (s *Store) convertLegacyLocked(logVersion uint32) error {
	legacy := logVersion != RedoBatchVersion
	for i := range s.man.Tables {
		legacy = legacy || s.man.Tables[i].ChunkRows == 0
	}
	if !legacy {
		return nil
	}
	err := s.publishLocked(func(e *TableEntry) (*rel.Table, error) {
		if e.ChunkRows == 0 {
			return s.assembleFrom(s.loadWholeSegmentLocked, e, s.redo[e.Name])
		}
		return s.foldTailLocked(e)
	})
	if err != nil {
		return fmt.Errorf("storage: converting legacy store %s to chunked segments and a batched redo log: %w", s.dir, err)
	}
	return nil
}

// loadWholeSegmentLocked loads a version-1 whole-table segment through
// its verification chain: size, CRC, bounds-checked decode, structural
// validation.
func (s *Store) loadWholeSegmentLocked(e *TableEntry) (*rel.Table, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("storage: reading segment for table %q: %w", e.Name, err)
	}
	if int64(len(data)) != e.Size {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, fmt.Errorf("storage: segment %s is %d bytes, manifest says %d", e.File, len(data), e.Size)
	}
	if got := crc32.Checksum(data, crcTable); got != e.CRC {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, fmt.Errorf("storage: segment %s checksum mismatch: manifest says %08x, file hashes to %08x", e.File, e.CRC, got)
	}
	snap, err := DecodeSegment(data)
	if err != nil {
		s.reg.Counter("storage.checksum.failures").Inc()
		return nil, err
	}
	if snap.Name != e.Name {
		return nil, fmt.Errorf("storage: segment %s holds table %q, manifest says %q", e.File, snap.Name, e.Name)
	}
	t, err := rel.TableFromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("storage: segment %s: %w", e.File, err)
	}
	s.reg.Counter("storage.segment.bytes_read").Add(int64(len(data)))
	return t, nil
}
