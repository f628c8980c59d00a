package obs

import "testing"

// BenchmarkNilTracer pins the disabled-path cost of the instrumentation
// pattern used on hot paths: a nil-tracer span start/attr/end sequence
// must stay in the low-nanosecond range so wiring obs through the
// executor and the search does not tax production runs (the end-to-end
// comparison is BenchmarkExecutePreparedTraced in the repo root).
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.StartSpan("op")
		c := s.Child("inner")
		c.End()
		s.End()
	}
}

// BenchmarkNilCounter pins the disabled-path cost of registry counters.
func BenchmarkNilCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledSpan measures the enabled-path span cost for scale.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	tr.SetMaxSpans(1 << 30)
	root := tr.StartSpan("root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := root.Child("op", Int("i", int64(i)))
		s.End()
	}
}

// BenchmarkEnabledCounter measures the enabled-path counter cost.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
