package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/rel"
)

// The redo log records row appends made after Save, so a reopened
// store replays them deterministically and every table lands on exactly
// the rows it had before the restart. Layout:
//
//	"XRDO" | u32 version | record...
//	record := u32 body length | u32 CRC32-C of the length |
//	          u32 CRC32-C of body | body
//	body   := string table name | uvarint row count |
//	          (uvarint value count | value...)...
//
// Each record is one batch of rows appended to the same table under a
// single fsync (group commit). The log is only ever extended, and a
// record's checksums are its commit point: the log is committed up to
// its last record that verifies. The rest is a torn tail — the write of
// an append that was never acknowledged — and is ignored if it starts
// with a record header cut short by end-of-file, a verified header
// whose body runs past end-of-file, or a header or body that fails its
// checksum with only zero bytes after it (a machine crash can extend
// the file before its pages reach disk); the next append cuts it off.
// A header or body that fails with a non-zero byte after it is damage,
// and readRedo refuses it: every record written has a non-empty body.
//
// The price: a truncation exactly at a record boundary reads as an
// earlier commit, not as damage.

// RedoBatchVersion is the redo log format: one record per
// group-committed batch, no commit footer. Version 1 framed one row per
// record and version 2 ended in an overwritten commit footer; readRedo
// refuses both, like any other version, with ErrUnsupportedFormat.
const RedoBatchVersion = 3

var redoMagic = [4]byte{'X', 'R', 'D', 'O'}

// redoHeaderSize is the fixed file header: magic + version;
// recordHeaderSize a record's: length + its CRC + the body's CRC.
const redoHeaderSize, recordHeaderSize = 4 + 4, 4 + 4 + 4

// redoRecord is one replayable append.
type redoRecord struct {
	Table string
	Row   []rel.Value
}

// emptyRedoLog is the initial file Save and every epoch publish write:
// the header alone.
func emptyRedoLog() []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), redoMagic[:]...), RedoBatchVersion)
}

// appendRedoBatchRecord appends recs, a non-empty run of rows appended
// to the table recs[0] names, to p as a single checksummed record: the
// header is written zero and filled in once the body follows it.
func appendRedoBatchRecord(p []byte, recs []redoRecord) []byte {
	start := len(p)
	p = append(p, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	p = appendString(p, recs[0].Table)
	p = binary.AppendUvarint(p, uint64(len(recs)))
	for _, rec := range recs {
		p = binary.AppendUvarint(p, uint64(len(rec.Row)))
		for _, v := range rec.Row {
			p = appendValue(p, v)
		}
	}
	rec := p[start:]
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recordHeaderSize))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[:4], crcTable))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[recordHeaderSize:], crcTable))
	return p
}

// readRedo parses a redo log file's full contents and returns its rows
// and end, the committed length: the offset just past the last record
// that verifies. Bytes past end are a torn tail. Bad magic, damage (see
// the layout above), or a body that does not decode is an error, and a
// version other than RedoBatchVersion is ErrUnsupportedFormat; the
// caller treats the store as unopenable.
// Batched records are flattened to one redoRecord per row, in order.
func readRedo(data []byte) (recs []redoRecord, end int, err error) {
	if len(data) < redoHeaderSize {
		return nil, 0, fmt.Errorf("storage: redo log truncated: %d bytes, need at least %d", len(data), redoHeaderSize)
	}
	if [4]byte(data[:4]) != redoMagic {
		return nil, 0, fmt.Errorf("storage: not a redo log (magic %q)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
		return nil, 0, fmt.Errorf("%w: redo log version %d, this build reads version %d", ErrUnsupportedFormat, v, RedoBatchVersion)
	}
	end = redoHeaderSize
	for len(data)-end >= recordHeaderSize {
		rec := data[end:]
		if crc32.Checksum(rec[:4], crcTable) != binary.LittleEndian.Uint32(rec[4:]) {
			if len(bytes.TrimLeft(rec[recordHeaderSize:], "\x00")) == 0 {
				break // only zero bytes after it: torn tail
			}
			return nil, 0, fmt.Errorf("storage: redo record at offset %d: length fails its checksum", end)
		}
		n := uint64(binary.LittleEndian.Uint32(rec))
		if n > uint64(len(rec)-recordHeaderSize) {
			break // cut short by end-of-file: torn tail
		}
		body, after := rec[recordHeaderSize:recordHeaderSize+n], rec[recordHeaderSize+n:]
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(rec[8:]); got != want {
			if len(bytes.TrimLeft(after, "\x00")) == 0 {
				break // only zero bytes after it: torn tail
			}
			return nil, 0, fmt.Errorf("storage: redo record at offset %d checksum mismatch: record says %08x, body hashes to %08x", end, want, got)
		}
		batch, err := decodeRedoBatchBody(body)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: redo record at offset %d: %w", end, err)
		}
		recs = append(recs, batch...)
		end = len(data) - len(after)
	}
	return recs, end, nil
}

// decodeRedoBatchBody parses one checksum-verified record body into
// one redoRecord per row.
func decodeRedoBatchBody(body []byte) ([]redoRecord, error) {
	r := &reader{buf: body, kind: "redo record"}
	table := r.str("table name")
	if r.err == nil && table == "" {
		r.failf("empty table name")
	}
	nrows := r.uvarint("row count")
	if r.err == nil && nrows > uint64(r.remaining()) {
		// Each row costs at least one body byte; cheap sanity bound
		// before allocating.
		r.failf("row count %d exceeds remaining body %d", nrows, r.remaining())
	}
	if r.err != nil {
		return nil, r.err
	}
	recs := make([]redoRecord, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		nvals := r.uvarint("value count")
		if r.err == nil && nvals > uint64(r.remaining()) {
			r.failf("value count %d exceeds remaining body %d", nvals, r.remaining())
		}
		if r.err != nil {
			return nil, r.err
		}
		row := make([]rel.Value, nvals)
		for j := range row {
			row[j] = r.value()
		}
		if r.err != nil {
			return nil, r.err
		}
		recs = append(recs, redoRecord{Table: table, Row: row})
	}
	if r.remaining() != 0 {
		return nil, r.failf("%d trailing bytes after batch rows", r.remaining())
	}
	return recs, nil
}

// encodeRedoBatch appends the records of one group commit to p:
// consecutive rows to the same table fold into one batched record.
func encodeRedoBatch(p []byte, recs []redoRecord) []byte {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Table == recs[i].Table {
			j++
		}
		p = appendRedoBatchRecord(p, recs[i:j])
		i = j
	}
	return p
}

// writeRedoBatch cuts the log back to end, its committed length,
// so that no torn tail or bytes of a failed write stay between two
// commits; writes buf, a group commit's encodeRedoBatch, at end; and
// fsyncs once — the group commit. The records' checksums are the
// commit: a crash in the write leaves a torn tail that readRedo
// ignores.
func writeRedoBatch(path string, buf []byte, end int64) (newEnd int64, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: opening redo log: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(end); err != nil {
		return 0, fmt.Errorf("storage: truncating redo log: %w", err)
	}
	if _, err := f.WriteAt(buf, end); err != nil {
		return 0, fmt.Errorf("storage: appending redo batch: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: syncing redo log: %w", err)
	}
	return end + int64(len(buf)), nil
}
