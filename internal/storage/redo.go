package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
//	body   := string table name | uvarint row count | row...
//	row    := cell per column, in the table's column order
//	cell   := null flag byte (nullable columns only) | the value unless
//	          NULL, as its column's type: INT varint, FLOAT u64,
//	          VARCHAR string
//
// A row carries no width or type of its own: a record decodes only
// against its table's columns, which AppendBatch logged it under.
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
// group-committed batch, each value written as its column's type.
// Version 1 framed one row per record, version 2 ended in an
// overwritten commit footer, and version 3 tagged every value with its
// own null flag, type and three payload fields; readRedo refuses them,
// like any other version, with ErrUnsupportedFormat.
const RedoBatchVersion = 4

var redoMagic = [4]byte{'X', 'R', 'D', 'O'}

// redoHeaderSize is the fixed file header: magic + version;
// recordHeaderSize a record's: length + its CRC + the body's CRC.
const redoHeaderSize, recordHeaderSize = 4 + 4, 4 + 4 + 4

// redoRun is the rows of one AppendBatch call as they are logged: every
// value is of its column's type and admitted by it.
type redoRun struct {
	table string
	cols  []rel.Column
	rows  [][]rel.Value
}

// emptyRedoLog is the initial file Save and every epoch publish write:
// the header alone.
func emptyRedoLog() []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), redoMagic[:]...), RedoBatchVersion)
}

// encodeRedoBatch appends the runs of one group commit to p, one record
// per stretch of consecutive runs to the same table.
func encodeRedoBatch(p []byte, runs []redoRun) []byte {
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].table == runs[i].table {
			j++
		}
		p = appendRedoRecord(p, runs[i:j])
		i = j
	}
	return p
}

// appendRedoRecord appends runs, all to the table runs[0] names, to p
// as a single checksummed record: the header is written zero and
// filled in once the body follows it.
func appendRedoRecord(p []byte, runs []redoRun) []byte {
	start := len(p)
	p = append(p, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	p = appendString(p, runs[0].table)
	n := 0
	for _, run := range runs {
		n += len(run.rows)
	}
	p = binary.AppendUvarint(p, uint64(n))
	for _, run := range runs {
		for _, row := range run.rows {
			for ci, v := range row {
				p = appendCell(p, &run.cols[ci], v)
			}
		}
	}
	rec := p[start:]
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recordHeaderSize))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[:4], crcTable))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[recordHeaderSize:], crcTable))
	return p
}

// appendCell writes v, which c admits, as c's type: a null flag when c
// is nullable, then the value unless it is NULL.
func appendCell(p []byte, c *rel.Column, v rel.Value) []byte {
	if c.Nullable {
		p = append(p, boolByte(v.Null))
	}
	if v.Null {
		return p
	}
	switch c.Typ {
	case rel.TInt:
		return binary.AppendVarint(p, v.I)
	case rel.TFloat:
		return binary.LittleEndian.AppendUint64(p, math.Float64bits(v.F))
	}
	return appendString(p, v.S)
}

// readRedo parses a redo log file's full contents, hands the body of
// every record that verifies to apply in log order, and returns end, the
// committed length: the offset just past the last record that verifies.
// Bytes past end are a torn tail. Bad magic, damage (see the layout
// above), or an error from apply is an error, and a version other than
// RedoBatchVersion is ErrUnsupportedFormat; the caller treats the store
// as unopenable.
func readRedo(data []byte, apply func(body []byte) error) (end int, err error) {
	if len(data) < redoHeaderSize {
		return 0, fmt.Errorf("storage: redo log truncated: %d bytes, need at least %d", len(data), redoHeaderSize)
	}
	if [4]byte(data[:4]) != redoMagic {
		return 0, fmt.Errorf("storage: not a redo log (magic %q)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
		return 0, fmt.Errorf("%w: redo log version %d, this build reads version %d", ErrUnsupportedFormat, v, RedoBatchVersion)
	}
	end = redoHeaderSize
	for len(data)-end >= recordHeaderSize {
		rec := data[end:]
		if crc32.Checksum(rec[:4], crcTable) != binary.LittleEndian.Uint32(rec[4:]) {
			if len(bytes.TrimLeft(rec[recordHeaderSize:], "\x00")) == 0 {
				break // only zero bytes after it: torn tail
			}
			return 0, fmt.Errorf("storage: redo record at offset %d: length fails its checksum", end)
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
			return 0, fmt.Errorf("storage: redo record at offset %d checksum mismatch: record says %08x, body hashes to %08x", end, want, got)
		}
		if err := apply(body); err != nil {
			return 0, fmt.Errorf("storage: redo record at offset %d: %w", end, err)
		}
		end = len(data) - len(after)
	}
	return end, nil
}

// decodeRedoRecord decodes one verified record body straight into the
// tail table tailOf returns for the table the record names, each row as
// that table's columns declare it. A null flag other than 0 or 1, or a
// body that does not decode under the columns, is damage. On an error
// the tail may hold some of the record's rows: the caller refuses the
// store.
func decodeRedoRecord(body []byte, tailOf func(table string) (*rel.Table, error)) error {
	r := &reader{buf: body, kind: "redo record"}
	name := r.str("table name")
	nrows := r.uvarint("row count")
	if r.err == nil && nrows > uint64(r.remaining()) {
		// Every column writes at least one byte a row; a cheap bound
		// before the loop.
		r.failf("row count %d exceeds remaining body %d", nrows, r.remaining())
	}
	if r.err != nil {
		return r.err
	}
	t, err := tailOf(name)
	if err != nil {
		return err
	}
	row := make([]rel.Value, len(t.Columns))
	for i := uint64(0); i < nrows; i++ {
		for ci := range row {
			row[ci] = r.cell(&t.Columns[ci])
		}
		if r.err != nil {
			return r.err
		}
		t.AppendRow(row)
	}
	if r.remaining() != 0 {
		return r.failf("%d trailing bytes after batch rows", r.remaining())
	}
	return nil
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
