package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/storage"
	"repro/internal/xmlgen"
)

func TestHTTPRoundTrip(t *testing.T) {
	m, db, built := movieFixture(t, 120)
	want := refResults(t, m, db, serviceQueries)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := NewClient("http://"+srv.Addr, nil)
	ctx := context.Background()

	for i, qs := range serviceQueries {
		resp, err := cl.Query(ctx, Request{Corpus: "movie", Tenant: "remote", XPath: qs})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		requireSameResult(t, qs, resp, want[i])
	}

	// Admission errors keep their identity across the wire.
	if _, err := cl.Query(ctx, Request{Corpus: "nope", Tenant: "remote", XPath: "//movie/year"}); !errors.Is(err, ErrUnknownCorpus) {
		t.Errorf("unknown corpus over HTTP: got %v", err)
	}

	infos, err := cl.Corpora(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "movie" || infos[0].Rows == 0 {
		t.Errorf("corpora = %+v", infos)
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	cases := []rel.Value{
		rel.Int(42),
		rel.Int(-1),
		rel.NullOf(rel.TInt),
		rel.Str(""),
		rel.Str("héllo\x00world"),
		rel.NullOf(rel.TString),
		rel.Float(3.25),
		rel.Float(math.NaN()),
		rel.Float(math.Inf(1)),
		rel.Float(math.Inf(-1)),
		rel.Float(math.Copysign(0, -1)), // -0.0 must stay distinct from +0.0
		rel.NullOf(rel.TFloat),
	}
	for _, v := range cases {
		resp := &Response{Cols: []string{"v"}, Rows: [][]rel.Value{{v}}}
		body := appendResponse(nil, resp)
		if want := oracleEncode(t, resp); !bytes.Equal(body, want) {
			t.Errorf("%v: encoded %q, want %q", v, body, want)
		}
		back, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got := back.Rows[0][0]; !got.BitEqual(v) {
			t.Errorf("round trip %v -> %v: not bit-equal", v, got)
		}
	}
}

func TestErrKindMapping(t *testing.T) {
	for _, sentinel := range []error{ErrOverloaded, ErrDeadline, ErrUnknownCorpus, ErrClosed, ErrRequestTooLarge, storage.ErrStale, storage.ErrClosed} {
		status, kind := errKind(sentinel)
		if kind == "" {
			t.Fatalf("%v: no kind", sentinel)
		}
		if back := kindErr(kind, sentinel.Error()); !errors.Is(back, sentinel) {
			t.Errorf("kind %q (status %d) does not invert to %v", kind, status, sentinel)
		}
	}
	// The wrapped DeadlineError maps like its sentinel.
	if _, kind := errKind(wrapDeadline("execute", context.DeadlineExceeded)); kind != "deadline" {
		t.Errorf("DeadlineError kind = %q", kind)
	}
}

// TestRequestBodyLimit walks both sides of maxRequestBody: a valid
// request padded to exactly the limit is served, one byte more is a 413
// with its own kind — not the JSON-decode 400 a silently truncated body
// used to produce — and the kind survives the Client round trip as
// ErrRequestTooLarge.
func TestRequestBodyLimit(t *testing.T) {
	m, _, built := movieFixture(t, 40)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	req := `{"corpus":"movie","tenant":"t","xpath":"//movie/year"}`
	post := func(size int) (int, wireError) {
		t.Helper()
		body := strings.Repeat(" ", size-len(req)) + req
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%d-byte body: %v", size, err)
		}
		defer resp.Body.Close()
		var we wireError
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
				t.Fatalf("%d-byte body: HTTP %d with an unreadable error body: %v", size, resp.StatusCode, err)
			}
		}
		return resp.StatusCode, we
	}
	if status, we := post(maxRequestBody); status != http.StatusOK {
		t.Errorf("body of exactly %d bytes: HTTP %d (%+v), want 200", maxRequestBody, status, we)
	}
	status, we := post(maxRequestBody + 1)
	if status != http.StatusRequestEntityTooLarge || we.Kind != "request_too_large" {
		t.Errorf("body of %d bytes: HTTP %d kind %q (%s), want 413 request_too_large", maxRequestBody+1, status, we.Kind, we.Error)
	}
	// A malformed body inside the limit is still a plain 400.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"corpus":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: HTTP %d, want 400", resp.StatusCode)
	}

	cl := NewClient(ts.URL, nil)
	_, err = cl.Query(context.Background(), Request{Corpus: "movie", Tenant: "t", XPath: "//movie/" + strings.Repeat("x", 2<<20)})
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Errorf("2 MiB request through Client: got %v, want ErrRequestTooLarge", err)
	}
	if _, err := cl.Query(context.Background(), Request{Corpus: "movie", Tenant: "t", XPath: "//movie/year"}); err != nil {
		t.Errorf("a normal request after the oversized one: %v", err)
	}
}

// TestTrailingDataIsABadRequest pins that a /query body is exactly one
// request object: whitespace after it is accepted, anything else — junk,
// a second value, a stray delimiter — is a 400 "bad request body", never
// a query run on the body's prefix.
func TestTrailingDataIsABadRequest(t *testing.T) {
	m, _, built := movieFixture(t, 40)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	req := `{"corpus":"movie","tenant":"t","xpath":"//movie/year"}`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"one object", req, http.StatusOK},
		{"trailing newline", req + "\n", http.StatusOK},
		{"trailing whitespace", req + " \r\n\t ", http.StatusOK},
		{"trailing junk", req + " junk", http.StatusBadRequest},
		{"second object", req + "\n" + req, http.StatusBadRequest},
		{"second value", req + " 1", http.StatusBadRequest},
		{"stray brace", req + "}", http.StatusBadRequest},
		{"stray bracket", req + "]", http.StatusBadRequest},
		{"stray comma", req + ",", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, rec.Code, rec.Body, tc.status)
			continue
		}
		if tc.status != http.StatusOK {
			var we wireError
			if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || !strings.HasPrefix(we.Error, "bad request body") {
				t.Errorf("%s: error body %q (%v), want a bad request body wireError", tc.name, rec.Body, err)
			}
		}
	}
}

// FuzzHTTPQuery posts arbitrary bodies to the service's handler. Every
// one must end in a defined outcome: no panic, a status from the wire
// protocol's set, a 200 only for a body that is one JSON value, its
// response decoding with a Content-Length that matches it, and any other
// body a wireError.
func FuzzHTTPQuery(f *testing.F) {
	m, _, built := movieFixture(f, 12)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		f.Fatal(err)
	}
	h := svc.Handler()
	for _, q := range serviceQueries {
		f.Add(appendRequest(nil, Request{Corpus: "movie", Tenant: "t", XPath: q, Workers: 2}))
	}
	for _, s := range []string{
		`{"corpus":"nope","tenant":"t","xpath":"//movie/year"}`,
		`{"corpus":"movie","tenant":"t","xpath":"//movie[year >="}`,
		`{"corpus":"movie","tenant":"t","xpath":"//movie/year","timeout_ms":-1,"workers":-1,"mem_estimate":-5}`,
		`{"corpus":"movie","tenant":"t","xpath":"//movie/year","workers":1000000,"mem_estimate":9223372036854775807}`,
		`{"corpus":"movie","xpath":"//nothing"}`,
		`{"corpus":`, `{}`, `null`, `[]`, `"x"`, ``, `{"workers":"2"}`, `{"timeout_ms":1e999}`,
		`{"corpus":"movie","xpath":"//movie/year"} junk`, `{"corpus":"movie","xpath":"//movie/year"}` + "\n",
		`{"corpus":"movie","xpath":"//movie/year"}{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(body) {
				t.Fatalf("%q: HTTP 200 for a body that is not one JSON value", body)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%q: Content-Length %q for a %d-byte body", body, cl, rec.Body.Len())
			}
			if _, err := decodeResponse(rec.Body.Bytes()); err != nil {
				t.Fatalf("%q: 200 body does not decode: %v", body, err)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var we wireError
			if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || we.Error == "" {
				t.Fatalf("%q: HTTP %d body %q is not a wireError (%v)", body, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("%q: HTTP %d", body, rec.Code)
		}
	})
}

// timings matches the two members of a /query body that differ between
// any two answers to one request.
var timings = regexp.MustCompile(`"queued_us":\d+,"elapsed_us":\d+}`)

// TestHandlerBodyMatchesQuery: the handler writes its rows through the
// engine's byte target, never through Response, and its body must be
// the bytes appendResponse writes for Query's answer to the same
// request — byte for byte once queued_us and elapsed_us are zeroed — on
// scans, joins, unions, a seek, an empty result, a query its mapping
// proves empty (zero branches: no columns, no rows) and several grants.
func TestHandlerBodyMatchesQuery(t *testing.T) {
	m, db, _ := movieFixture(t, 120)
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"}, Include: []string{"ID", "title", "box_office"}})
	built, err := engine.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{PoolWorkers: 4})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	// Distributing movie over the box_office|seasons choice puts the two
	// arms in two partitions, so a selection on one arm projecting the
	// other reads none.
	tree := schema.Movie()
	choice := tree.ElementsNamed("box_office")[0].UnderChoice()
	tree.ElementsNamed("movie")[0].Distributions = []schema.Distribution{{Choice: choice.ID}}
	sm, err := shred.Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shred.Shred(sm, xmlgen.GenerateMovie(tree, xmlgen.MovieOptions{Movies: 120, Seed: 21}))
	if err != nil {
		t.Fatal(err)
	}
	sbuilt, err := engine.Build(sdb, &physical.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterBuilt("movie-split", sbuilt, sm, nil); err != nil {
		t.Fatal(err)
	}
	const provablyEmpty = `//movie[box_office >= 1000]/seasons`
	h := svc.Handler()
	type corpusQuery struct{ corpus, xpath string }
	var queries []corpusQuery
	for _, q := range append([]string{`//movie[year = 2001]/(title | box_office)`, `//movie[year = 1]/title`}, serviceQueries...) {
		queries = append(queries, corpusQuery{"movie", q})
	}
	queries = append(queries, corpusQuery{"movie-split", `//movie[box_office >= 1000]/title`}, corpusQuery{"movie-split", provablyEmpty})
	zero := func(body []byte) string {
		return timings.ReplaceAllString(string(body), `"queued_us":0,"elapsed_us":0}`)
	}
	for _, cq := range queries {
		q := cq.xpath
		for _, workers := range []int{1, 2, 4} {
			req := Request{Corpus: cq.corpus, Tenant: "t", XPath: q, Workers: workers}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(appendRequest(nil, req))))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", q, rec.Code, rec.Body)
			}
			resp, err := svc.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Queued, resp.Elapsed = 0, 0
			got := zero(rec.Body.Bytes())
			if want := string(appendResponse(nil, resp)); got != want {
				t.Fatalf("%s workers %d: handler body\n%.400s\nwant appendResponse(Query)\n%.400s", q, workers, got, want)
			}
			if empty := strings.HasPrefix(got, `{"cols":[],"rows":[],`); empty != (q == provablyEmpty) {
				t.Fatalf("%s workers %d: body %.100s; only the provably empty query answers no columns and no rows", q, workers, got)
			}
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps only the byte
// count, so a benchmark of the handler measures the handler.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkHandleQuery is the server side of a seek-shaped /query: a
// covering index on movie(year) turns the query into an index seek, so
// what a request allocates is the handler's own — request decoding,
// admission, the byte target's bookkeeping — and no result cell or row
// header. "value-path" answers the same request the way the handler did
// before the byte target, Query's result rows encoded by appendResponse,
// for comparison. rows/op is reported beside the allocations.
func BenchmarkHandleQuery(b *testing.B) {
	m, db, _ := movieFixture(b, 2000)
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"}, Include: []string{"ID", "title", "box_office"}})
	built, err := engine.Build(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		b.Fatal(err)
	}
	req := Request{Corpus: "movie", Tenant: "t", XPath: `//movie[year >= 2001]/(title | box_office)`, Workers: 1}
	warm, err := svc.Query(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	if warm.Stats.RowsScanned != 0 || len(warm.Rows) == 0 {
		b.Fatalf("not a seek-shaped query: %d rows, stats %+v", len(warm.Rows), warm.Stats)
	}
	body := appendRequest(nil, req)
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(warm.Rows)), "rows/op")
	}
	b.Run("handler", func(b *testing.B) {
		h := svc.Handler()
		w := &discardWriter{h: make(http.Header)}
		hr := httptest.NewRequest(http.MethodPost, "/query", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hr.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, hr)
		}
		report(b)
	})
	b.Run("value-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Query(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			bp := getBuf()
			*bp = appendResponse(*bp, resp)
			putBuf(bp)
		}
		report(b)
	})
}
