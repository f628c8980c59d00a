// Command xmladvisor recommends a combined logical + physical design
// for storing XML (with XSD) in a relational database, given a schema,
// a dataset (built-in generators or an XML file), and an XPath
// workload.
//
// Usage:
//
//	xmladvisor -dataset dblp -queries queries.txt -algorithm greedy
//	xmladvisor -xsd schema.xsd -xml data.xml -queries queries.txt
//
// The queries file holds one XPath query per line ('#' comments
// allowed); an optional weight may follow the query separated by a
// tab.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	xmlshred "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/storage"
)

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.dataset, "dataset", "", "built-in dataset: dblp or movie")
	flag.Float64Var(&cfg.scale, "scale", 0.25, "built-in dataset scale factor")
	flag.StringVar(&cfg.xsdPath, "xsd", "", "XSD schema file (alternative to -dataset)")
	flag.StringVar(&cfg.xmlPath, "xml", "", "XML data file (required with -xsd)")
	flag.StringVar(&cfg.queryPath, "queries", "", "workload file: one XPath query per line")
	flag.StringVar(&cfg.algorithm, "algorithm", "greedy", "greedy | naive | twostep | hybrid")
	flag.Int64Var(&cfg.storageMB, "storage", 0, "storage bound in MB (0 = unbounded)")
	flag.BoolVar(&cfg.execute, "execute", true, "load the data, measure workload execution, and print the estimated-vs-measured cost audit")
	flag.BoolVar(&cfg.showSQL, "sql", false, "print the translated SQL per query")
	trace := flag.Bool("trace", false, "narrate the search per round on stderr")
	flag.IntVar(&cfg.parallel, "parallel", 1, "concurrent candidate evaluations (all algorithms; results are identical at any setting)")
	flag.IntVar(&cfg.workers, "workers", 0, "goroutines each -execute measurement query runs on (0 or 1 = one goroutine, -1 = all CPUs; results are identical at any setting)")
	flag.StringVar(&cfg.traceJSON, "trace-json", "", "write the structured span tree (search phases, tuner calls, executor stages) to this file as JSON")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /debug/vars, /debug/metrics, and /debug/pprof on this address while running")
	flag.StringVar(&cfg.saveDir, "save-dir", "", "persist the loaded data and recommended design as a durable store in this directory")
	flag.StringVar(&cfg.openDir, "open-dir", "", "reopen a store saved with -save-dir, verify it, and print its summary (no advisor run)")
	flag.Int64Var(&cfg.memBudgetMB, "mem-budget", 0, "memory budget in MB for -open-dir: above 0 the store is rebuilt through the chunk-granular paged view (Store.PagedBuilt), tables stay on disk as schema shells and scans fault column chunks in on demand under the budget (0 = unlimited, tables assembled resident)")
	flag.IntVar(&cfg.chunkRows, "chunk-rows", 0, "rows per column chunk for segments written by -save-dir (0 = default 4096, else a positive multiple of 64)")
	flag.IntVar(&cfg.compactThreshold, "compact-threshold", 0, "redo-log rows that trigger background compaction on an opened store (0 = compact only on demand)")
	flag.Parse()
	if *trace {
		traceWriter = os.Stderr
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xmladvisor:", err)
		os.Exit(1)
	}
}

// traceWriter receives search narration when -trace is set.
var traceWriter io.Writer

// cliConfig carries the parsed command line into run.
type cliConfig struct {
	dataset, xsdPath, xmlPath, queryPath, algorithm string
	scale                                           float64
	storageMB                                       int64
	parallel, workers                               int
	execute, showSQL                                bool
	traceJSON, debugAddr                            string
	saveDir, openDir                                string
	memBudgetMB                                     int64
	chunkRows, compactThreshold                     int
}

func run(c cliConfig) error {
	if c.openDir != "" {
		return openStore(c)
	}
	var tree *xmlshred.SchemaTree
	var docs []*xmlshred.Document
	switch {
	case c.dataset == "dblp":
		d := experiments.LoadDBLP(experiments.Scale(c.scale))
		tree, docs = d.Tree, d.Docs
	case c.dataset == "movie":
		d := experiments.LoadMovie(experiments.Scale(c.scale))
		tree, docs = d.Tree, d.Docs
	case c.xsdPath != "":
		f, err := os.Open(c.xsdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		tree, err = xmlshred.ParseXSD(f)
		if err != nil {
			return err
		}
		if c.xmlPath == "" {
			return fmt.Errorf("-xml is required with -xsd")
		}
		xf, err := os.Open(c.xmlPath)
		if err != nil {
			return err
		}
		defer xf.Close()
		doc, err := xmlshred.ParseXML(tree, xf)
		if err != nil {
			return err
		}
		docs = []*xmlshred.Document{doc}
	default:
		return fmt.Errorf("pass -dataset dblp|movie or -xsd schema.xsd -xml data.xml")
	}
	if c.queryPath == "" {
		return fmt.Errorf("-queries is required")
	}
	w, err := readWorkload(c.queryPath)
	if err != nil {
		return err
	}

	// Observability: a tracer when a trace sink is requested, a metrics
	// registry whenever either debug surface is on.
	var tr *obs.Tracer
	var reg *obs.Registry
	if c.traceJSON != "" {
		tr = obs.New()
	}
	if c.traceJSON != "" || c.debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if c.debugAddr != "" {
		ds, err := obs.ServeDebug(c.debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", ds.Addr)
	}

	col := xmlshred.CollectStatistics(tree, docs...)
	adv := xmlshred.NewAdvisor(tree, col, w, core.Options{
		StorageBytes: c.storageMB << 20,
		Parallelism:  c.parallel,
		Workers:      c.workers,
		Trace:        traceWriter,
		Obs:          tr,
		Registry:     reg,
	})

	var res *xmlshred.Result
	switch c.algorithm {
	case "greedy":
		res, err = adv.Greedy()
	case "naive":
		res, err = adv.NaiveGreedy()
	case "twostep":
		res, err = adv.TwoStep()
	case "hybrid":
		res, err = adv.HybridBaseline()
	default:
		return fmt.Errorf("unknown algorithm %q", c.algorithm)
	}
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout, c.showSQL); err != nil {
		return err
	}
	if c.execute {
		ex, err := adv.MeasureExecution(res, docs...)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- measured execution --\nworkload time: %s (IQR %s, %d rows, data %d KB, structures %d KB)\n",
			ex.Elapsed, ex.Spread, ex.Rows, ex.DataBytes>>10, ex.StructBytes>>10)
		audit, err := adv.CostAudit(res, docs...)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := audit.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	if c.saveDir != "" {
		_, built, err := adv.BuildFor(res, docs...)
		if err != nil {
			return err
		}
		man, err := storage.Save(c.saveDir, built, storage.Options{
			Registry:   reg,
			MappingSQL: res.Mapping.SQLSchema(),
			ChunkRows:  c.chunkRows,
		})
		if err != nil {
			return err
		}
		var rows int64
		for _, e := range man.Tables {
			rows += int64(e.Rows)
		}
		fmt.Printf("\n-- saved store --\n%d tables (%d rows) persisted to %s; reopen with -open-dir %s\n",
			len(man.Tables), rows, c.saveDir, c.saveDir)
	}
	if c.traceJSON != "" {
		if err := writeTrace(tr, c.traceJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", tr.SpanCount(), c.traceJSON)
	}
	return nil
}

// openStore reopens a saved store: it verifies the manifest, loads and
// validates every segment, rebuilds the physical design, and prints a
// summary with the cold reopen latency, the redo-log tail, and what the
// pager kept resident under the memory budget.
func openStore(c cliConfig) error {
	reg := obs.NewRegistry()
	st, err := storage.Open(c.openDir, storage.Options{
		Registry:       reg,
		MemBudgetBytes: c.memBudgetMB << 20,
		CompactRecords: c.compactThreshold,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	man := st.Manifest()
	fmt.Printf("store %s (segment format v%d, epoch %d)\n", c.openDir, man.FormatVersion, man.Epoch)
	// A budget bounds only what pages, so a budgeted store is paged.
	rebuild := st.Built
	if c.memBudgetMB > 0 {
		rebuild = st.PagedBuilt
	}
	built, err := rebuild()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %12s %10s  %s\n", "table", "rows", "bytes", "chunk", "segment")
	for _, e := range man.Tables {
		fmt.Printf("%-20s %10d %12d %10d  %s\n", e.Name, e.Rows, e.Bytes, e.ChunkRows, e.File)
	}
	var redoBytes int64
	if fi, err := os.Stat(filepath.Join(c.openDir, man.RedoFile)); err == nil {
		redoBytes = fi.Size()
	}
	fmt.Printf("redo %s: %d rows, %d KB", man.RedoFile, st.RedoRows(), redoBytes>>10)
	if torn := reg.Counter("storage.redo.torn_tail_bytes").Value(); torn > 0 {
		fmt.Printf(", torn tail %d bytes", torn)
	}
	if c.compactThreshold > 0 && st.RedoRows() >= c.compactThreshold {
		fmt.Printf("  [compaction due: tail >= %d rows]", c.compactThreshold)
	}
	fmt.Println()
	if man.Design != nil {
		if s := man.Design.String(); s != "" {
			fmt.Printf("\n-- physical design --\n%s", s)
		}
	}
	if man.MappingSQL != "" {
		fmt.Printf("\n-- logical design (SQL schema) --\n%s\n", man.MappingSQL)
	}
	snap := reg.Snapshot()
	_, chunkRes := st.ResidentBytes()
	fmt.Printf("\nreopened warm: %d tables, data %d KB, structures %d KB, segments read %.0f KB, open+rebuild %.1f ms\n",
		len(man.Tables), built.DB.Bytes()>>10, built.StructBytes>>10,
		snap["storage.segment.bytes_read"]/1024,
		snap["storage.open.ms"]+snap["storage.built.ms"]+snap["storage.paged_built.ms"])
	fmt.Printf("resident: chunk cache %d KB", chunkRes>>10)
	if c.memBudgetMB > 0 {
		fmt.Printf(" (budget %d MB, faults %.0f, evictions %.0f)",
			c.memBudgetMB, snap["storage.pager.faults"], snap["storage.pager.evictions"])
	}
	fmt.Println()
	if c.memBudgetMB > 0 {
		fmt.Printf("paged view: all %d tables serve scans, partition scans included, chunk-by-chunk through the pager; shells assemble only for index and view builds, seeks, join build sides and EXISTS probes\n",
			len(man.Tables))
	}
	return nil
}

// writeTrace validates the span tree and writes it to path as JSON.
func writeTrace(tr *obs.Tracer, path string) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace validation: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readWorkload(path string) (*xmlshred.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := &xmlshred.Workload{Name: path}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		weight := 1.0
		if i := strings.IndexByte(text, '\t'); i >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(text[i+1:]), 64); err == nil {
				weight = v
				text = strings.TrimSpace(text[:i])
			}
		}
		q, err := xmlshred.ParseQuery(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		w.Queries = append(w.Queries, xmlshred.WorkloadQuery{XPath: q, Weight: weight})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return w, nil
}
