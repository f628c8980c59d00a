package storage

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/physical"
)

// ManifestVersion is the manifest format version. The manifest payload
// itself is JSON (schema evolution stays cheap); the envelope pins the
// version and checksums the bytes like a segment.
const ManifestVersion = 1

var manMagic = [4]byte{'X', 'M', 'A', 'N'}

// ManifestName and RedoName are the fixed file names inside a store
// directory.
const (
	ManifestName = "MANIFEST.xman"
	RedoName     = "redo.log"
)

// TableEntry records one saved table in the manifest: where its
// segment lives and the integrity facts (size, checksum, shape) a load
// verifies before serving the data.
type TableEntry struct {
	// Name is the relation name; Parent its parent relation ("" for
	// the root).
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// File is the segment file name within the store directory
	// (always a bare name, never a path).
	File string `json:"file"`
	// Size is the segment file's full length. CRC is the CRC32-C of
	// just the framed directory (chunk bodies carry their own checksums
	// in the directory, so lazy loads never hash the whole file).
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
	// ChunkRows and Dir describe the chunked segment: rows per chunk
	// and the framed directory length.
	ChunkRows int   `json:"chunkRows,omitempty"`
	Dir       int64 `json:"dir,omitempty"`
	// Rows and Bytes pin the decoded table's shape: a segment that
	// decodes to anything else is rejected.
	Rows  int   `json:"rows"`
	Bytes int64 `json:"bytes"`
}

// Manifest is the store's root metadata: the table list (in database
// creation order), the chosen physical design, and a rendering of the
// logical design (the mapping's SQL schema) for operators.
type Manifest struct {
	// FormatVersion is the segment format the store was written with;
	// Open reads only ChunkSegmentVersion.
	FormatVersion int `json:"formatVersion"`
	// Epoch counts compactions: each redo-log fold writes a new
	// set of segment files named for the epoch and bumps it.
	// The manifest rename is the atomic switch between epochs.
	Epoch int `json:"epoch,omitempty"`
	// Tables lists every saved base table in creation order.
	Tables []TableEntry `json:"tables"`
	// Design is the physical configuration (indexes, views, vertical
	// partitions) the store was built with; reopening rebuilds the
	// same structures from it.
	Design *physical.Config `json:"design"`
	// MappingSQL is the CREATE TABLE rendering of the logical design
	// the advisor chose, informational (the relational schema itself
	// is authoritative in the segments).
	MappingSQL string `json:"mappingSQL,omitempty"`
	// RedoFile is the redo log file name; every store has one.
	RedoFile string `json:"redoFile"`
}

// Table returns the entry for a table name, or nil.
func (m *Manifest) Table(name string) *TableEntry {
	for i := range m.Tables {
		if m.Tables[i].Name == name {
			return &m.Tables[i]
		}
	}
	return nil
}

// encodeManifest frames the manifest JSON in the checksummed envelope.
func encodeManifest(m *Manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("storage: encoding manifest: %w", err)
	}
	return wrapEnvelope(manMagic, ManifestVersion, payload), nil
}

// decodeManifest verifies the envelope and parses the JSON payload,
// then checks the structural invariants Open depends on.
func decodeManifest(data []byte) (*Manifest, error) {
	payload, err := openEnvelope("manifest", manMagic, ManifestVersion, data)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest: %w", err)
	}
	if m.FormatVersion != ChunkSegmentVersion {
		return nil, fmt.Errorf("%w: manifest says segment format %d, this build reads format %d", ErrUnsupportedFormat, m.FormatVersion, ChunkSegmentVersion)
	}
	if m.Epoch < 0 {
		return nil, fmt.Errorf("storage: corrupt manifest: negative epoch %d", m.Epoch)
	}
	seen := make(map[string]bool, len(m.Tables))
	files := make(map[string]bool, len(m.Tables))
	for i := range m.Tables {
		e := &m.Tables[i]
		if e.Name == "" {
			return nil, fmt.Errorf("storage: corrupt manifest: table %d has empty name", i)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("storage: corrupt manifest: duplicate table %q", e.Name)
		}
		seen[e.Name] = true
		if err := checkFileName(e.File); err != nil {
			return nil, fmt.Errorf("storage: corrupt manifest: table %q: %w", e.Name, err)
		}
		if files[e.File] {
			return nil, fmt.Errorf("storage: corrupt manifest: segment file %q listed twice", e.File)
		}
		files[e.File] = true
		if e.Rows < 0 || e.Size < envelopeSize || e.Bytes < 0 {
			return nil, fmt.Errorf("storage: corrupt manifest: table %q has impossible shape (rows %d, size %d, bytes %d)",
				e.Name, e.Rows, e.Size, e.Bytes)
		}
		if e.ChunkRows <= 0 || e.ChunkRows%64 != 0 {
			return nil, fmt.Errorf("storage: corrupt manifest: table %q chunk size %d is not a positive multiple of 64", e.Name, e.ChunkRows)
		}
		if e.Dir < envelopeSize || e.Dir > e.Size {
			return nil, fmt.Errorf("storage: corrupt manifest: table %q directory length %d is impossible for a %d-byte segment", e.Name, e.Dir, e.Size)
		}
	}
	if err := checkFileName(m.RedoFile); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest: redo log: %w", err)
	}
	return m, nil
}

// checkFileName rejects manifest file references that could escape the
// store directory: only bare names are ever written, so anything else
// is corruption (or an attack on a copied-around store).
func checkFileName(name string) error {
	if name == "" {
		return fmt.Errorf("empty file name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("file name %q is not a bare name", name)
	}
	return nil
}
