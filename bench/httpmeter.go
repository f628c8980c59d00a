package main

import (
	"io"
	"net/http"
	"sync/atomic"
)

// byteMeter counts the response body bytes an HTTP client reads, which
// service.Client does not expose.
type byteMeter struct{ bytes atomic.Int64 }

func (m *byteMeter) client() *http.Client {
	return &http.Client{Transport: meteredTransport{m}}
}

type meteredTransport struct{ m *byteMeter }

func (t meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &meteredBody{ReadCloser: resp.Body, m: t.m}
	}
	return resp, err
}

type meteredBody struct {
	io.ReadCloser
	m *byteMeter
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.bytes.Add(int64(n))
	return n, err
}
