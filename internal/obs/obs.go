// Package obs is a zero-dependency observability layer: a structured
// span tracer plus a counter/gauge registry, wired through the search
// (candidate selection, merging, per-candidate evaluation, cost
// derivation, tuner calls) and the batch executor (prepare, execution,
// structure-cache hits and misses).
//
// The disabled path is a deliberate design constraint: a nil *Tracer
// and a nil *Span accept every method call as a near-no-op (one
// pointer test), so instrumented hot paths keep their performance when
// tracing is off. BenchmarkNilTracer pins this, and scripts/benchguard
// bounds what enabled tracing costs on top: BenchmarkExecutePreparedTraced
// over BenchmarkExecutePrepared (repo root), both on one Built.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value span attribute. Values are restricted to
// JSON-friendly scalars by the constructors below.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// DefaultMaxSpans bounds the number of live spans a tracer retains.
// Beyond it new spans are dropped (counted in DroppedSpans) so a
// traced measurement loop cannot exhaust memory.
const DefaultMaxSpans = 1 << 18

// Tracer records a forest of spans. The zero value is not usable; call
// New. A nil *Tracer is the disabled tracer: every method is a no-op
// and StartSpan returns a nil *Span.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	nextID   int64
	roots    []*Span
	count    int
	dropped  int64
	maxSpans int
}

// New creates an enabled tracer.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), maxSpans: DefaultMaxSpans}
}

// SetMaxSpans overrides the span retention cap (0 restores the
// default).
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.maxSpans = n
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// DroppedSpans reports how many spans the retention cap discarded.
func (t *Tracer) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one timed operation in the tree. A nil *Span is a disabled
// span: every method no-ops and Child returns nil, so span handles can
// be passed through code paths unconditionally.
type Span struct {
	tracer   *Tracer
	parent   *Span
	ID       int64
	Name     string
	start    time.Duration // since tracer epoch
	end      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// newSpan allocates a span under the tracer lock.
func (t *Tracer) newSpan(name string, parent *Span, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count >= t.maxSpans {
		t.dropped++
		return nil
	}
	t.count++
	t.nextID++
	s := &Span{
		tracer: t,
		parent: parent,
		ID:     t.nextID,
		Name:   name,
		start:  time.Since(t.epoch),
		attrs:  attrs,
	}
	if parent == nil {
		t.roots = append(t.roots, s)
	} else {
		parent.children = append(parent.children, s)
	}
	return s
}

// StartSpan opens a root span.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, nil, attrs)
}

// Child opens a sub-span. Safe to call from concurrent goroutines
// sharing one parent (parallel candidate evaluations, union branches).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s, attrs)
}

// Parent returns the span's parent, or nil for a root (or nil) span.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// SetAttr appends attributes to an open or ended span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tracer.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = time.Since(s.tracer.epoch)
	}
	s.tracer.mu.Unlock()
}

// spanJSON is the serialized span shape.
type spanJSON struct {
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent,omitempty"`
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*spanJSON    `json:"children,omitempty"`
}

func (s *Span) toJSON() *spanJSON {
	j := &spanJSON{
		ID:      s.ID,
		Name:    s.Name,
		StartUS: s.start.Microseconds(),
		DurUS:   (s.end - s.start).Microseconds(),
	}
	if s.parent != nil {
		j.Parent = s.parent.ID
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}

// traceJSON is the serialized trace document.
type traceJSON struct {
	Spans   []*spanJSON `json:"spans"`
	Dropped int64       `json:"dropped_spans,omitempty"`
}

// WriteJSON emits the whole span forest as one JSON document. Open
// spans are reported with their current duration.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"spans":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	doc := traceJSON{Dropped: t.dropped}
	for _, r := range t.roots {
		doc.Spans = append(doc.Spans, r.toJSON())
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Validate checks span-tree well-formedness: every span is ended, ends
// at or after its start, links to the tracer's own spans, and nests
// inside its parent's interval. A nil tracer is trivially well-formed.
func (t *Tracer) Validate() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var check func(s *Span, parent *Span) error
	check = func(s *Span, parent *Span) error {
		if s.parent != parent {
			return fmt.Errorf("obs: span %d %q has wrong parent link", s.ID, s.Name)
		}
		if !s.ended {
			return fmt.Errorf("obs: span %d %q never ended", s.ID, s.Name)
		}
		if s.end < s.start {
			return fmt.Errorf("obs: span %d %q ends before it starts", s.ID, s.Name)
		}
		if parent != nil && (s.start < parent.start || (parent.ended && s.end > parent.end)) {
			return fmt.Errorf("obs: span %d %q [%v,%v] escapes parent %q [%v,%v]",
				s.ID, s.Name, s.start, s.end, parent.Name, parent.start, parent.end)
		}
		for _, c := range s.children {
			if err := check(c, s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.roots {
		if err := check(r, nil); err != nil {
			return err
		}
	}
	return nil
}

// SpanCount returns the number of retained spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// FindAll returns every retained span with the given name, in creation
// order within each subtree (test helper).
func (t *Tracer) FindAll(name string) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return out
}

// Attr returns the named attribute value of a span and whether it was
// set (last write wins).
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return nil, false
}

// AttrKeys returns the span's attribute keys, sorted (test helper).
func (s *Span) AttrKeys() []string {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	keys := make([]string, 0, len(s.attrs))
	for _, a := range s.attrs {
		keys = append(keys, a.Key)
	}
	sort.Strings(keys)
	return keys
}
