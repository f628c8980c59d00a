package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestReadWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.txt")
	content := `# comment
//movie[year >= 2000]/(title | box_office)
//movie/avg_rating	3.5

//movie[genre = "g"]/title
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := readWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 3 {
		t.Fatalf("queries = %d, want 3", len(w.Queries))
	}
	if w.Queries[1].Weight != 3.5 {
		t.Errorf("weight = %f, want 3.5", w.Queries[1].Weight)
	}
	if w.Queries[0].Weight != 1 {
		t.Errorf("default weight = %f", w.Queries[0].Weight)
	}
}

func TestReadWorkloadErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := readWorkload(empty); err == nil {
		t.Error("want error for empty workload")
	}
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("not an xpath\n"), 0o644)
	if _, err := readWorkload(bad); err == nil {
		t.Error("want error for bad query")
	}
	if _, err := readWorkload(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(cliConfig{scale: 0.1, algorithm: "greedy", parallel: 1}); err == nil {
		t.Error("want error without dataset or schema")
	}
	if err := run(cliConfig{dataset: "movie", scale: 0.01, algorithm: "greedy", parallel: 1}); err == nil {
		t.Error("want error without queries")
	}
}

// TestRunTraceJSON drives a full advisor run end to end — search,
// measured execution, cost audit — with -trace-json, and checks the
// emitted span tree is well-formed JSON covering search and executor
// phases.
func TestRunTraceJSON(t *testing.T) {
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	content := "//movie[year >= 2000]/title\n//movie/avg_rating\t2\n"
	if err := os.WriteFile(queries, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.json")
	// Silence the report while the test runs; the trace file is the
	// artifact under test.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	err = run(cliConfig{
		dataset: "movie", scale: 0.02, queryPath: queries,
		algorithm: "greedy", parallel: 2, execute: true,
		traceJSON: trace,
	})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	type jspan struct {
		Name     string  `json:"name"`
		Children []jspan `json:"children"`
	}
	var doc struct {
		Spans []jspan `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	var walk func(s jspan)
	walk = func(s jspan) {
		names[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range doc.Spans {
		walk(s)
	}
	for _, want := range []string{"search", "advisor.evaluate", "physdesign.tune",
		"executor.prepare", "executor.execute", "advisor.cost-audit"} {
		if !names[want] {
			t.Errorf("trace has no %q span (%d top-level spans)", want, len(doc.Spans))
		}
	}
}

// TestRunSaveOpen drives the durable-store flags end to end: an
// advisor run with -save-dir, then a fresh process-equivalent reopen
// with -open-dir whose summary must carry the saved tables and design.
func TestRunSaveOpen(t *testing.T) {
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("//movie[year >= 2000]/title\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	out := captureStdout(t, func() error {
		return run(cliConfig{
			dataset: "movie", scale: 0.02, queryPath: queries,
			algorithm: "greedy", parallel: 1, execute: false,
			saveDir: store,
		})
	})
	if !strings.Contains(out, "saved store") || !strings.Contains(out, store) {
		t.Fatalf("save run did not report the store:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(store, "MANIFEST.xman")); err != nil {
		t.Fatalf("no manifest written: %v", err)
	}

	out = captureStdout(t, func() error {
		return run(cliConfig{openDir: store})
	})
	for _, want := range []string{"segment format v3, epoch 0", "reopened warm",
		"logical design (SQL schema)", "CREATE TABLE", "redo redo.log: 0 rows", "resident: chunk cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("open summary missing %q:\n%s", want, out)
		}
	}

	if strings.Contains(out, "paged view:") {
		t.Errorf("unbudgeted open summary claims a paged view:\n%s", out)
	}
	// Assembly reads the segment files, not the pager: an unbudgeted
	// reopen leaves the chunk cache empty.
	if !slices.Contains(strings.Split(out, "\n"), "resident: chunk cache 0 KB") {
		t.Errorf("unbudgeted open summary has no line \"resident: chunk cache 0 KB\":\n%s", out)
	}
	// The redo line reports the log alone: the epoch is the header's.
	if !slices.Contains(strings.Split(out, "\n"), "redo redo.log: 0 rows, 0 KB") {
		t.Errorf("open summary has no redo line \"redo redo.log: 0 rows, 0 KB\":\n%s", out)
	}

	// A budgeted reopen is paged: it rebuilds through chunk-scan shells,
	// says so, and reports the pager traffic alongside residency.
	out = captureStdout(t, func() error {
		return run(cliConfig{openDir: store, memBudgetMB: 1})
	})
	if !strings.Contains(out, "budget 1 MB") || !strings.Contains(out, "faults") {
		t.Errorf("budgeted open summary missing pager stats:\n%s", out)
	}
	if !strings.Contains(out, "paged view:") || !strings.Contains(out, "chunk-by-chunk") {
		t.Errorf("budgeted open summary missing paged-view line:\n%s", out)
	}

	// A corrupted store must reopen as an error, not a summary.
	seg := filepath.Join(store, "t0000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runSilent(t, cliConfig{openDir: store})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted store reopened: %v", err)
	}

	// -chunk-rows -1 is not a format selector: the save fails with the
	// chunk-size error and publishes nothing.
	bad := filepath.Join(dir, "bad")
	err = runSilent(t, cliConfig{
		dataset: "movie", scale: 0.02, queryPath: queries,
		algorithm: "greedy", parallel: 1, execute: false,
		saveDir: bad, chunkRows: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "chunk size -1") {
		t.Fatalf("-chunk-rows -1: %v, want a chunk-size error", err)
	}
	if _, err := os.Stat(filepath.Join(bad, "MANIFEST.xman")); err == nil {
		t.Fatal("failed save published a manifest")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it printed, failing the test if fn errors.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	data, rerr := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(data)
}

// runSilent runs with stdout discarded and returns the error.
func runSilent(t *testing.T, c cliConfig) error {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	return run(c)
}
