package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
)

func init() {
	engine.OpenPaged = func(t *testing.T, b *engine.Built, reg *obs.Registry) *engine.Built {
		t.Helper()
		dir := t.TempDir()
		man, err := storage.Save(dir, b, storage.Options{ChunkRows: 64})
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		var data int64
		for _, e := range man.Tables {
			data += e.Bytes
		}
		st, err := storage.Open(dir, storage.Options{MemBudgetBytes: data / 4, Registry: reg})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		pb, err := st.PagedBuilt()
		if err != nil {
			t.Fatalf("PagedBuilt: %v", err)
		}
		return pb
	}
}
