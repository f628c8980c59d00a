package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestSpanTree(t *testing.T) {
	tr := New()
	root := tr.StartSpan("search", String("alg", "greedy"))
	sel := root.Child("candidate-selection")
	sel.SetAttr(Int("splits", 3))
	sel.End()
	round := root.Child("round", Int("idx", 0))
	ev := round.Child("evaluate")
	ev.End()
	round.End()
	root.End()

	if err := tr.Validate(); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if got := tr.SpanCount(); got != 4 {
		t.Errorf("SpanCount = %d, want 4", got)
	}
	if len(tr.FindAll("evaluate")) != 1 || len(tr.FindAll("round")) != 1 {
		t.Error("FindAll missed spans")
	}
	if v, ok := sel.Attr("splits"); !ok || v.(int64) != 3 {
		t.Errorf("attr splits = %v, %v", v, ok)
	}
}

func TestValidateRejectsOpenSpan(t *testing.T) {
	tr := New()
	root := tr.StartSpan("search")
	root.Child("never-ended")
	root.End()
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Errorf("Validate() = %v, want never-ended error", err)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tr := New()
	root := tr.StartSpan("a", Int("n", 7), Bool("flag", true), Float("f", 0.5))
	root.Child("b").End()
	root.End()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name     string         `json:"name"`
			Attrs    map[string]any `json:"attrs"`
			Children []struct {
				Name   string `json:"name"`
				Parent int64  `json:"parent"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, b.String())
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "a" {
		t.Fatalf("bad root: %+v", doc.Spans)
	}
	if doc.Spans[0].Attrs["n"].(float64) != 7 || doc.Spans[0].Attrs["flag"] != true {
		t.Errorf("attrs lost: %+v", doc.Spans[0].Attrs)
	}
	if len(doc.Spans[0].Children) != 1 || doc.Spans[0].Children[0].Parent == 0 {
		t.Errorf("child/parent links lost: %+v", doc.Spans[0].Children)
	}
}

func TestNilTracerAndSpanNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	s := tr.StartSpan("x", Int("n", 1))
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	c := s.Child("y")
	c.SetAttr(String("k", "v"))
	c.End()
	s.End()
	if err := tr.Validate(); err != nil {
		t.Errorf("nil tracer Validate = %v", err)
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"spans":[]`) {
		t.Errorf("nil tracer JSON = %s", b.String())
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := New()
	tr.SetMaxSpans(3)
	root := tr.StartSpan("root")
	for i := 0; i < 5; i++ {
		root.Child(fmt.Sprintf("c%d", i)).End()
	}
	root.End()
	if got := tr.SpanCount(); got != 3 {
		t.Errorf("SpanCount = %d, want 3 (capped)", got)
	}
	if got := tr.DroppedSpans(); got != 3 {
		t.Errorf("DroppedSpans = %d, want 3", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("capped tracer not well-formed: %v", err)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New()
	root := tr.StartSpan("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.Child("work", Int("worker", int64(i)))
				c.SetAttr(Int("j", int64(j)))
				c.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if err := tr.Validate(); err != nil {
		t.Fatalf("concurrent children broke the tree: %v", err)
	}
	if got := len(tr.FindAll("work")); got != 16*50 {
		t.Errorf("work spans = %d, want %d", got, 16*50)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("advisor.tool_calls")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("advisor.tool_calls") != c {
		t.Error("Counter did not return the same instance")
	}
	g := r.Gauge("advisor.est_cost")
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	snap := r.Snapshot()
	if snap["advisor.tool_calls"] != 5 || snap["advisor.est_cost"] != 12.5 {
		t.Errorf("snapshot = %v", snap)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "advisor.est_cost 12.5") ||
		!strings.Contains(b.String(), "advisor.tool_calls 5") {
		t.Errorf("WriteTo output:\n%s", b.String())
	}
}

func TestNilRegistryNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Error("nil registry retained values")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	PublishExpvar("nil-registry", r) // must not panic
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.cache.join_hits").Add(3)
	ds, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/debug/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/metrics" && !strings.Contains(string(body), "engine.cache.join_hits 3") {
			t.Errorf("metrics body missing counter:\n%s", body)
		}
	}
	// Publishing the same name twice must not panic.
	PublishExpvar("xmlshred", r)
}
