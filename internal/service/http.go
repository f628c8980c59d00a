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
	"repro/internal/storage"
)

// The wire protocol is JSON over HTTP:
//
//	POST /query    Request body  → response (wire.go) | wireError
//	GET  /corpora  → []CorpusInfo
//	GET  /healthz  → "ok"
//
// The /query 200 body goes through the hand-rolled codec in wire.go,
// its rows encoded by the engine's byte target; everything else —
// request decoding, error bodies, /corpora — through encoding/json.
//
// Admission outcomes map onto status codes so generic HTTP tooling
// does the right thing — 429 for overload (back off), 504 for
// deadline, 404 for an unknown corpus, 413 for a request body over
// maxRequestBody, 500 for an execution that panicked — and the body
// carries a "kind" tag so Client can
// recover the exact sentinel error, keeping local and remote callers on
// one error taxonomy.

// maxRequestBody caps a /query request body. A request is an XPath and
// a handful of scalars; a megabyte is far past any real one.
const maxRequestBody = 1 << 20

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
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError, "internal"
	case errors.Is(err, storage.ErrStale):
		// A compaction staled the corpus's paged view: a server-side
		// condition, which registering the corpus again clears.
		return http.StatusServiceUnavailable, "stale_corpus"
	case errors.Is(err, storage.ErrClosed):
		// The store under a corpus was closed: a server-side condition
		// too, not a malformed request.
		return http.StatusServiceUnavailable, "store_closed"
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
	case "internal":
		return fmt.Errorf("%w (server: %s)", ErrInternal, msg)
	case "stale_corpus":
		return fmt.Errorf("%w (server: %s)", storage.ErrStale, msg)
	case "store_closed":
		return fmt.Errorf("%w (server: %s)", storage.ErrClosed, msg)
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	err := dec.Decode(&req)
	if err == nil {
		// A body is one request object: anything after it but whitespace
		// makes the body malformed, not ignored.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			fail(fmt.Errorf("%w: over %d bytes", ErrRequestTooLarge, tooLarge.Limit))
		} else {
			fail(fmt.Errorf("bad request body: %w", err))
		}
		return
	}
	// A panic in the execution is answered with ErrInternal and counted;
	// raised on, it would cost the client its connection and answer.
	defer func() {
		if p := recover(); p != nil {
			s.reg.Counter("service.http.panics").Inc()
			fail(fmt.Errorf("%w: the query panicked: %v", ErrInternal, p))
		}
	}()
	// The rows go onto the wire straight from the engine's byte target:
	// the head is written before execution, each row is appended as its
	// wire bytes from the column vectors, and the tail once the grant and
	// timings are known. No result row is built.
	bp := getBuf()
	var resp Response
	var rows int
	err = s.serve(r.Context(), req, &resp, func(ctx context.Context, pp *engine.PreparedPlan, workers int) (int, error) {
		var err error
		*bp, rows, resp.Stats, err = pp.AppendRows(ctx, workers, appendHead(*bp, pp.Cols()), appendRow)
		return rows, err
	})
	if err != nil {
		putBuf(bp)
		fail(err)
		return
	}
	*bp = appendTail(*bp, rows, &resp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(http.StatusOK)
	w.Write(*bp) //nolint:errcheck
	putBuf(bp)
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

// maxResponseBody is the largest /query response body Client reads. A
// larger one is an error naming this cap, not a truncated read.
const maxResponseBody = 64 << 20

// Client is the HTTP counterpart of Service.Query: it submits requests
// to a remote xmlserved and folds wire errors back into the sentinel
// taxonomy, so code written against Query works unchanged against a
// remote service.
type Client struct {
	base    string
	hc      *http.Client
	maxBody int64 // maxResponseBody; tests lower it
}

// NewClient builds a client for a service at base (e.g.
// "http://localhost:8080"). hc nil uses a default client with no
// overall timeout — per-request deadlines come from the context and
// the server-side Request.TimeoutMS.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc, maxBody: maxResponseBody}
}

// Query submits one request. Admission errors come back as the same
// sentinels the local path returns: errors.Is(err, ErrOverloaded) and
// errors.Is(err, ErrDeadline) hold across the wire.
func (c *Client) Query(ctx context.Context, req Request) (*Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(appendRequest(nil, req)))
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
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if err := json.NewDecoder(io.LimitReader(resp.Body, c.maxBody)).Decode(&we); err != nil {
			return nil, fmt.Errorf("service: HTTP %d (unreadable body: %v)", resp.StatusCode, err)
		}
		return nil, kindErr(we.Kind, we.Error)
	}
	bp, err := readBody(resp.Body, resp.ContentLength, c.maxBody)
	if err != nil {
		if ctx.Err() != nil {
			return nil, wrapDeadline("client", ctx.Err())
		}
		return nil, err
	}
	out, err := decodeResponse(*bp)
	putBuf(bp)
	if err != nil {
		return nil, fmt.Errorf("service: decode response: %w", err)
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
