package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/rel"
)

// The redo log records row appends made after Save, so a reopened
// store replays them deterministically and generation counters land
// exactly where they were before the restart. Layout:
//
//	"XRDO" | u32 version | record... | footer
//	record := u32 body length | u32 CRC32-C of body | body
//	body   := string table name | uvarint row count |
//	          (uvarint value count | value...)...
//	footer := "XEND" | u32 row count | u32 CRC32-C of footer prefix
//
// Each record is one batch of rows appended to the same table under a
// single fsync (group commit). Records are self-checksummed, and the
// footer pins the row count: an append overwrites the old footer with
// the new record and writes a fresh footer after it. Truncating the
// file anywhere — even exactly at a record boundary — removes or
// damages the footer, so readRedo reports an error instead of silently
// replaying a prefix.
//
// The overwrite is also the log's weak point: a crash in the middle of
// an append leaves no valid footer, and Open then refuses the whole
// store — every batch acknowledged before the crash included — rather
// than replaying the last commit (ROADMAP item 1 moves the commit point
// past the old footer so only the torn append is lost).

// RedoBatchVersion is the redo log format: one record per
// group-committed batch. Version 1 framed one row per record; readRedo
// refuses it, like any other version, with ErrUnsupportedFormat.
const RedoBatchVersion = 2

var (
	redoMagic    = [4]byte{'X', 'R', 'D', 'O'}
	redoEndMagic = [4]byte{'X', 'E', 'N', 'D'}
)

// redoHeaderSize is the fixed file header: magic + version.
// redoFooterSize is the commit marker: magic + record count + CRC.
const (
	redoHeaderSize = 4 + 4
	redoFooterSize = 4 + 4 + 4
)

// redoRecord is one replayable append.
type redoRecord struct {
	Table string
	Row   []rel.Value
}

// encodeRedoFooter returns the commit marker for a log holding count
// records.
func encodeRedoFooter(count uint32) []byte {
	out := make([]byte, 0, redoFooterSize)
	out = append(out, redoEndMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, count)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// emptyRedoLog is the initial file Save and every epoch publish write:
// the header plus a zero-record footer.
func emptyRedoLog() []byte {
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), redoMagic[:]...), RedoBatchVersion)
	return append(out, encodeRedoFooter(0)...)
}

// frameRedoBody wraps a record body with its length and checksum.
func frameRedoBody(body []byte) []byte {
	out := make([]byte, 0, 8+len(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	return append(out, body...)
}

// encodeRedoBatchRecord frames a batch of rows appended to one table
// as a single checksummed record.
func encodeRedoBatchRecord(table string, rows [][]rel.Value) []byte {
	var body []byte
	body = appendString(body, table)
	body = binary.AppendUvarint(body, uint64(len(rows)))
	for _, row := range rows {
		body = binary.AppendUvarint(body, uint64(len(row)))
		for _, v := range row {
			body = appendValue(body, v)
		}
	}
	return frameRedoBody(body)
}

// readRedo parses a redo log file's full contents. Any structural
// damage — bad magic, truncated record, checksum mismatch, missing or
// disagreeing footer, garbage body — is an error, and a version other
// than RedoBatchVersion is ErrUnsupportedFormat; the caller treats the
// store as unopenable rather than replaying a prefix silently. Batched
// records are flattened to one redoRecord per row, in order.
func readRedo(data []byte) ([]redoRecord, error) {
	if len(data) < redoHeaderSize+redoFooterSize {
		return nil, fmt.Errorf("storage: redo log truncated: %d bytes, need at least %d", len(data), redoHeaderSize+redoFooterSize)
	}
	if [4]byte(data[:4]) != redoMagic {
		return nil, fmt.Errorf("storage: not a redo log (magic %q)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != RedoBatchVersion {
		return nil, fmt.Errorf("%w: redo log version %d, this build reads version %d", ErrUnsupportedFormat, v, RedoBatchVersion)
	}
	foot := data[len(data)-redoFooterSize:]
	if [4]byte(foot[:4]) != redoEndMagic {
		return nil, fmt.Errorf("storage: redo log has no commit footer (truncated or crashed mid-append)")
	}
	if got, want := crc32.Checksum(foot[:8], crcTable), binary.LittleEndian.Uint32(foot[8:]); got != want {
		return nil, fmt.Errorf("storage: redo log footer checksum mismatch: footer says %08x, hashes to %08x", want, got)
	}
	count := binary.LittleEndian.Uint32(foot[4:8])
	var recs []redoRecord
	off := redoHeaderSize
	end := len(data) - redoFooterSize
	for off < end {
		if end-off < 8 {
			return nil, fmt.Errorf("storage: redo log truncated at offset %d: partial record header", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		if n < 0 || n > end-off {
			return nil, fmt.Errorf("storage: redo log truncated at offset %d: record body of %d bytes exceeds file", off, n)
		}
		body := data[off : off+n]
		if got := crc32.Checksum(body, crcTable); got != want {
			return nil, fmt.Errorf("storage: redo record at offset %d checksum mismatch: record says %08x, body hashes to %08x", off, want, got)
		}
		batch, err := decodeRedoBatchBody(body)
		if err != nil {
			return nil, fmt.Errorf("storage: redo record at offset %d: %w", off, err)
		}
		recs = append(recs, batch...)
		off += n
	}
	if uint32(len(recs)) != count {
		return nil, fmt.Errorf("storage: redo log holds %d rows, footer says %d", len(recs), count)
	}
	return recs, nil
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

// appendRedoBatch writes a batch of appends over the old footer at
// footOff, follows it with the footer for count total rows, truncates
// any stale bytes from an earlier failed write, and fsyncs once — the
// group commit. Consecutive rows to the same table fold into one
// batched record. The footer write is the commit: a crash before it
// leaves a footer-less tail that readRedo rejects.
func appendRedoBatch(path string, recs []redoRecord, footOff int64, count uint32) (newFootOff int64, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: opening redo log: %w", err)
	}
	defer f.Close()
	var buf []byte
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Table == recs[i].Table {
			j++
		}
		rows := make([][]rel.Value, 0, j-i)
		for k := i; k < j; k++ {
			rows = append(rows, recs[k].Row)
		}
		buf = append(buf, encodeRedoBatchRecord(recs[i].Table, rows)...)
		i = j
	}
	recLen := int64(len(buf))
	buf = append(buf, encodeRedoFooter(count)...)
	if _, err := f.WriteAt(buf, footOff); err != nil {
		return 0, fmt.Errorf("storage: appending redo batch: %w", err)
	}
	if err := f.Truncate(footOff + int64(len(buf))); err != nil {
		return 0, fmt.Errorf("storage: truncating redo log: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: syncing redo log: %w", err)
	}
	return footOff + recLen, nil
}
