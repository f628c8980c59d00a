package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans around the benchmark's calls into the program.
// The spans are obs.Tracer spans, opened from the benchmark's own files
// and kept in memory until the run ends; alongside them every span's
// duration is kept in nanoseconds by name, because the tracer's own
// clock rounds to microseconds and a rung can take less than ten.
//
// With on=false the same calls are timed without opening spans, which
// is how the tracing overhead is measured.
type tracer struct {
	on  bool
	obs *obs.Tracer
	mu  sync.Mutex
	dur map[string][]float64 // span name → microseconds
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, dur: make(map[string][]float64)}
	if on {
		t.obs = obs.New()
	}
	return t
}

// span is one open span. A span's self time is its duration minus the
// time its children cover.
type span struct {
	t       *tracer
	s       *obs.Span
	name    string
	request int64
	start   time.Time
	parent  *span
	covered time.Duration // by ended children
}

// request opens the root span of one request; its identifier is
// carried by every span below it.
func (t *tracer) request(name string, id int64) *span {
	sp := &span{t: t, name: name, request: id, start: time.Now()}
	sp.s = t.obs.StartSpan(name, obs.Int("request", id))
	return sp
}

func (sp *span) child(name string) *span {
	c := &span{t: sp.t, name: name, request: sp.request, parent: sp}
	c.s = sp.s.Child(name, obs.Int("request", sp.request))
	c.start = time.Now()
	return c
}

// end closes the span and returns its duration.
func (sp *span) end() time.Duration {
	d := time.Since(sp.start)
	sp.t.mu.Lock()
	// Children that ran side by side (union branches pulling chunks) can
	// cover more than the span lasted; self time stops at zero then.
	self := max(d-sp.covered, 0)
	if sp.parent != nil {
		sp.parent.covered += d
	}
	sp.t.dur[sp.name] = append(sp.t.dur[sp.name], us(d))
	sp.t.mu.Unlock()
	sp.s.SetAttr(obs.Float("self_us", us(self)))
	sp.s.End()
	return d
}

// do runs fn inside a child span.
func (sp *span) do(name string, fn func() error) (time.Duration, error) {
	c := sp.child(name)
	err := fn()
	return c.end(), err
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	RegistryBefore map[string]float64 `json:"registry_before"`
	RegistryAfter  map[string]float64 `json:"registry_after"`
	RegistryDelta  map[string]float64 `json:"registry_delta"`
	Trace          json.RawMessage    `json:"trace"`
}

// finish validates the span forest and writes it with the registry
// snapshots taken around the traced work.
func (t *tracer) finish(cfg *config, workload string, before, after map[string]float64) error {
	if err := t.obs.Validate(); err != nil {
		return fmt.Errorf("span forest is malformed: %w", err)
	}
	if n := t.obs.DroppedSpans(); n > 0 {
		return fmt.Errorf("tracer dropped %d spans", n)
	}
	var buf bytes.Buffer
	if err := t.obs.WriteJSON(&buf); err != nil {
		return err
	}
	tf := traceFile{Workload: workload, Seed: cfg.seed, RegistryBefore: before, RegistryAfter: after,
		RegistryDelta: make(map[string]float64), Trace: buf.Bytes()}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			tf.RegistryDelta[k] = d
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "trace-"+workload+".json"), data, 0o644)
}
