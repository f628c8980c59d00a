package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/rel"
)

// The wire protocol is JSON over HTTP:
//
//	POST /query    Request body  → wireResponse | wireError
//	GET  /corpora  → []CorpusInfo
//	GET  /healthz  → "ok"
//
// Admission outcomes map onto status codes so generic HTTP tooling
// does the right thing — 429 for overload (back off), 504 for
// deadline, 404 for an unknown corpus, 413 for a request body over
// maxRequestBody — and the body carries a "kind" tag so Client can
// recover the exact sentinel error, keeping local and remote callers on
// one error taxonomy.

// maxRequestBody caps a /query request body. A request is an XPath and
// a handful of scalars; a megabyte is far past any real one.
const maxRequestBody = 1 << 20

// wireValue is the JSON form of a rel.Value. Floats travel as
// strconv.FormatFloat(…, 'g', -1, 64) strings so every float —
// including NaN and the infinities, which encoding/json rejects —
// round-trips bit-exactly.
type wireValue struct {
	Null bool   `json:"null,omitempty"`
	Type string `json:"type"`
	Int  int64  `json:"int,omitempty"`
	Flt  string `json:"float,omitempty"`
	Str  string `json:"str,omitempty"`
}

func toWire(v rel.Value) wireValue {
	w := wireValue{Null: v.Null}
	switch v.Typ {
	case rel.TInt:
		w.Type, w.Int = "int", v.I
	case rel.TFloat:
		w.Type, w.Flt = "float", strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		w.Type, w.Str = "string", v.S
	}
	return w
}

func fromWire(w wireValue) (rel.Value, error) {
	switch w.Type {
	case "int":
		return rel.Value{Null: w.Null, Typ: rel.TInt, I: w.Int}, nil
	case "float":
		f, err := strconv.ParseFloat(w.Flt, 64)
		if err != nil && w.Flt != "" {
			return rel.Value{}, fmt.Errorf("service: bad float %q: %w", w.Flt, err)
		}
		return rel.Value{Null: w.Null, Typ: rel.TFloat, F: f}, nil
	case "string":
		return rel.Value{Null: w.Null, Typ: rel.TString, S: w.Str}, nil
	}
	return rel.Value{}, fmt.Errorf("service: bad wire type %q", w.Type)
}

type wireResponse struct {
	Cols      []string         `json:"cols"`
	Rows      [][]wireValue    `json:"rows"`
	Stats     engine.ExecStats `json:"stats"`
	Workers   int              `json:"workers"`
	QueuedUS  int64            `json:"queued_us"`
	ElapsedUS int64            `json:"elapsed_us"`
}

type wireError struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// errKind tags an error for the wire; Client's kindErr inverts it.
func errKind(err error) (status int, kind string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, ErrUnknownCorpus):
		return http.StatusNotFound, "unknown_corpus"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, ErrRequestTooLarge):
		return http.StatusRequestEntityTooLarge, "request_too_large"
	default:
		return http.StatusBadRequest, ""
	}
}

func kindErr(kind, msg string) error {
	switch kind {
	case "overloaded":
		return fmt.Errorf("%w (server: %s)", ErrOverloaded, msg)
	case "deadline":
		return fmt.Errorf("%w (server: %s)", ErrDeadline, msg)
	case "unknown_corpus":
		return fmt.Errorf("%w (server: %s)", ErrUnknownCorpus, msg)
	case "closed":
		return fmt.Errorf("%w (server: %s)", ErrClosed, msg)
	case "request_too_large":
		return fmt.Errorf("%w (server: %s)", ErrRequestTooLarge, msg)
	default:
		return errors.New(msg)
	}
}

// Handler returns the service's HTTP API as an http.Handler, ready to
// mount on any server (xmlserved mounts it at /, tests on a
// httptest.Server).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/corpora", s.handleCorpora)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	return mux
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	fail := func(err error) {
		status, kind := errKind(err)
		writeJSON(w, status, wireError{Error: err.Error(), Kind: kind})
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(fmt.Errorf("%w: over %d bytes", ErrRequestTooLarge, tooLarge.Limit))
		} else {
			fail(fmt.Errorf("bad request body: %w", err))
		}
		return
	}
	resp, err := s.Query(r.Context(), req)
	if err != nil {
		fail(err)
		return
	}
	wr := wireResponse{
		Cols:      resp.Cols,
		Rows:      make([][]wireValue, len(resp.Rows)),
		Stats:     resp.Stats,
		Workers:   resp.Workers,
		QueuedUS:  resp.Queued.Microseconds(),
		ElapsedUS: resp.Elapsed.Microseconds(),
	}
	for i, row := range resp.Rows {
		wrow := make([]wireValue, len(row))
		for j, v := range row {
			wrow[j] = toWire(v)
		}
		wr.Rows[i] = wrow
	}
	writeJSON(w, http.StatusOK, wr)
}

func (s *Service) handleCorpora(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.Corpora())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// Server runs a Service behind a TCP listener.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// Serve starts the service's HTTP API on addr in a background
// goroutine; a failed bind is returned synchronously.
func Serve(addr string, s *Service) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	out := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return out, nil
}

// Close shuts the listener down; in-flight requests are aborted.
func (sv *Server) Close() error {
	if sv == nil {
		return nil
	}
	return sv.srv.Close()
}

// Client is the HTTP counterpart of Service.Query: it submits requests
// to a remote xmlserved and folds wire errors back into the sentinel
// taxonomy, so code written against Query works unchanged against a
// remote service (loadgen targets either through QueryFunc).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for a service at base (e.g.
// "http://localhost:8080"). hc nil uses a default client with no
// overall timeout — per-request deadlines come from the context and
// the server-side Request.TimeoutMS.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc}
}

// Query submits one request. Admission errors come back as the same
// sentinels the local path returns: errors.Is(err, ErrOverloaded) and
// errors.Is(err, ErrDeadline) hold across the wire.
func (c *Client) Query(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, wrapDeadline("client", ctx.Err())
		}
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if err := dec.Decode(&we); err != nil {
			return nil, fmt.Errorf("service: HTTP %d (unreadable body: %v)", resp.StatusCode, err)
		}
		return nil, kindErr(we.Kind, we.Error)
	}
	var wr wireResponse
	if err := dec.Decode(&wr); err != nil {
		return nil, fmt.Errorf("service: decode response: %w", err)
	}
	out := &Response{
		Cols:    wr.Cols,
		Rows:    make([][]rel.Value, len(wr.Rows)),
		Stats:   wr.Stats,
		Workers: wr.Workers,
		Queued:  time.Duration(wr.QueuedUS) * time.Microsecond,
		Elapsed: time.Duration(wr.ElapsedUS) * time.Microsecond,
	}
	for i, wrow := range wr.Rows {
		row := make([]rel.Value, len(wrow))
		for j, wv := range wrow {
			row[j], err = fromWire(wv)
			if err != nil {
				return nil, err
			}
		}
		out.Rows[i] = row
	}
	return out, nil
}

// Corpora lists the server's registered corpora.
func (c *Client) Corpora(ctx context.Context) ([]CorpusInfo, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/corpora", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: HTTP %d listing corpora", resp.StatusCode)
	}
	var out []CorpusInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
