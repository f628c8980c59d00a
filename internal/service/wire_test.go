package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/rel"
)

// The reference encoding: the reflection-based types the /query 200
// body was produced and parsed with before the hand-rolled codec in
// wire.go. appendResponse must write what json.NewEncoder writes for
// them, byte for byte, and decodeResponse must read what json.Unmarshal
// reads into them, bit for bit.

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

// wireNames are the member names of the reference types.
var wireNames = []string{"cols", "rows", "stats", "workers", "queued_us", "elapsed_us",
	"RowsScanned", "RowsSought", "Branches", "null", "type", "int", "float", "str"}

func oracleEncode(t testing.TB, resp *Response) []byte {
	t.Helper()
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
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(wr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleDecode(body []byte) (*Response, error) {
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, err
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
			v, err := fromWire(wv)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		out.Rows[i] = row
	}
	return out, nil
}

// diffResponses compares two responses bit for bit, down to whether
// Cols is nil; empty means identical.
func diffResponses(got, want *Response) string {
	if d := diffResponse(got, &engine.Result{Cols: want.Cols, Rows: want.Rows, Stats: want.Stats}); d != "" {
		return d
	}
	switch {
	case (got.Cols == nil) != (want.Cols == nil):
		return fmt.Sprintf("cols nil = %v, want %v", got.Cols == nil, want.Cols == nil)
	case got.Workers != want.Workers:
		return fmt.Sprintf("workers %d, want %d", got.Workers, want.Workers)
	case got.Queued != want.Queued || got.Elapsed != want.Elapsed:
		return fmt.Sprintf("queued/elapsed %v/%v, want %v/%v", got.Queued, got.Elapsed, want.Queued, want.Elapsed)
	}
	return ""
}

// wireStringPieces are what random strings are built from: the bytes
// encoding/json escapes (quote, backslash, every control byte, <>&),
// U+2028/U+2029, valid multi-byte runes, and invalid UTF-8 — a stray
// continuation byte, a truncated sequence, an overlong form, a
// UTF-8-encoded surrogate and 0xff.
var wireStringPieces = func() []string {
	p := []string{"a", "Z", "title", " ", "0", `"`, `\`, "/", "<", ">", "&", "é", "中", "😀",
		string(rune(0x2028)), string(rune(0x2029)), string(rune(0xfffd)), "\x7f",
		"\x80", "\xe2\x82", "\xc0\xaf", "\xed\xa0\x80", "\xff"}
	for c := 0; c < 0x20; c++ {
		p = append(p, string(rune(c)))
	}
	return p
}()

func randWireString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(wireStringPieces[rng.Intn(len(wireStringPieces))])
	}
	return b.String()
}

var wireFloats = []float64{0, math.Copysign(0, -1), 1, -1, 3.25, 0.1, 1e21, 1e-7, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308}

var wireInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1e18, -999999999999999999}

func randWireValue(rng *rand.Rand) rel.Value {
	var v rel.Value
	switch rng.Intn(3) {
	case 0:
		v = rel.Int(wireInts[rng.Intn(len(wireInts))])
		if rng.Intn(2) == 0 {
			v.I = rng.Int63() - rng.Int63()
		}
	case 1:
		v = rel.Float(wireFloats[rng.Intn(len(wireFloats))])
		if rng.Intn(2) == 0 {
			// Any bit pattern but a non-canonical NaN, whose payload
			// FormatFloat does not carry.
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
				v.F = f
			}
		}
	default:
		v = rel.Str(randWireString(rng))
	}
	if rng.Intn(5) == 0 {
		// A NULL, usually with the zero payload the engine writes, now
		// and then with one left over.
		v.Null = true
		if rng.Intn(3) > 0 {
			v = rel.NullOf(v.Typ)
		}
	}
	return v
}

// randWireResponse builds a response over every corner of the format:
// nil and empty column lists, zero rows, empty and ragged rows, NULLs
// of each type, and every special float and string piece.
func randWireResponse(rng *rand.Rand) *Response {
	resp := &Response{
		Stats:   engine.ExecStats{RowsScanned: rng.Int63n(1e6), RowsSought: rng.Int63() - rng.Int63(), Branches: rng.Int63n(9)},
		Workers: rng.Intn(9) - 1,
		Queued:  time.Duration(rng.Int63() - rng.Int63()),
		Elapsed: time.Duration(rng.Int63n(1e10)),
	}
	width := rng.Intn(5)
	switch rng.Intn(4) {
	case 0: // nil: "cols":null
	case 1:
		resp.Cols = []string{}
	default:
		for i := 0; i < width; i++ {
			resp.Cols = append(resp.Cols, randWireString(rng))
		}
	}
	for n := rng.Intn(4) * rng.Intn(6); n > 0; n-- {
		w := width
		if rng.Intn(8) == 0 {
			w = rng.Intn(4)
		}
		row := make([]rel.Value, w)
		for j := range row {
			row[j] = randWireValue(rng)
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

// wantRoundTrip is what a response reads back as: durations truncated
// to the microseconds the wire carries, and each invalid UTF-8 byte as
// U+FFFD (which is what converting through []rune does).
func wantRoundTrip(resp *Response) *Response {
	fix := func(s string) string { return string([]rune(s)) }
	want := *resp
	want.Queued = time.Duration(resp.Queued.Microseconds()) * time.Microsecond
	want.Elapsed = time.Duration(resp.Elapsed.Microseconds()) * time.Microsecond
	if resp.Cols != nil {
		want.Cols = make([]string, len(resp.Cols))
		for i, c := range resp.Cols {
			want.Cols[i] = fix(c)
		}
	}
	want.Rows = make([][]rel.Value, len(resp.Rows))
	for i, row := range resp.Rows {
		want.Rows[i] = make([]rel.Value, len(row))
		for j, v := range row {
			v.S = fix(v.S)
			want.Rows[i][j] = v
		}
	}
	return &want
}

// TestWireDifferential is the codec's differential test: over seeded
// random responses, appendResponse writes exactly the bytes
// json.NewEncoder writes for the reference types, and decodeResponse
// reads them back bit-identically to json.Unmarshal — and to the
// original response, up to what the wire cannot carry.
func TestWireDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 3000; i++ {
		resp := randWireResponse(rng)
		got := appendResponse(nil, resp)
		want := oracleEncode(t, resp)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: encoding differs\n got %q\nwant %q", i, got, want)
		}
		back, err := decodeResponse(got)
		if err != nil {
			t.Fatalf("case %d: decode: %v\nbody %q", i, err, got)
		}
		ref, err := oracleDecode(got)
		if err != nil {
			t.Fatalf("case %d: reference decode: %v", i, err)
		}
		if d := diffResponses(back, ref); d != "" {
			t.Fatalf("case %d: decode differs from encoding/json: %s\nbody %q", i, d, got)
		}
		if d := diffResponses(back, wantRoundTrip(resp)); d != "" {
			t.Fatalf("case %d: round trip: %s\nbody %q", i, d, got)
		}
	}
}

// TestWireStatsFields fails when engine.ExecStats gains a field the
// codec does not carry: each field in turn is set alone, encoded, and
// must come back through both the reference decoder and the codec.
func TestWireStatsFields(t *testing.T) {
	st := reflect.TypeOf(engine.ExecStats{})
	for i := 0; i < st.NumField(); i++ {
		var stats engine.ExecStats
		f := reflect.ValueOf(&stats).Elem().Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("ExecStats.%s is a %s; the codec writes int64 fields only", st.Field(i).Name, f.Kind())
		}
		f.SetInt(int64(1000 + i))
		resp := &Response{Stats: stats}
		body := appendResponse(nil, resp)
		if want := oracleEncode(t, resp); !bytes.Equal(body, want) {
			t.Fatalf("ExecStats.%s: encoding %q, want %q", st.Field(i).Name, body, want)
		}
		ref, err := oracleDecode(body)
		if err != nil || ref.Stats != stats {
			t.Fatalf("ExecStats.%s: encoding/json reads %+v (%v) from %q, want %+v", st.Field(i).Name, ref.Stats, err, body, stats)
		}
		got, err := decodeResponse(body)
		if err != nil || got.Stats != stats {
			t.Fatalf("ExecStats.%s: decodeResponse reads %+v (%v), want %+v", st.Field(i).Name, got.Stats, err, stats)
		}
	}
}

// TestDecodedRowsDoNotAlias: decodeResponse cuts rows from a value arena
// with cap == len, so appending to one row never writes into the next.
// The bodies cover rows of unequal width, "cols" null and "cols" after
// "rows" (no column count to size the first arena by), null and empty
// rows, and rows that widen down the body, so that an arena sized from
// the rows read so far fills mid-row again and again.
func TestDecodedRowsDoNotAlias(t *testing.T) {
	ragged := &Response{Cols: []string{"a", "b", "c"}}
	widening := &Response{Cols: []string{"a"}}
	for i := range 300 {
		row := make([]rel.Value, i%5)
		for j := range row {
			row[j] = rel.Int(int64(100*i + j))
		}
		ragged.Rows = append(ragged.Rows, row)
		wide := make([]rel.Value, 1+i/8)
		for j := range wide {
			wide[j] = rel.Str(fmt.Sprint(i, ".", j))
		}
		widening.Rows = append(widening.Rows, wide)
	}
	raggedBody := appendResponse(nil, ragged)
	cut := bytes.Index(raggedBody, []byte(`,"rows":`))
	colsLast := slices.Concat([]byte("{"), raggedBody[cut+1:len(raggedBody)-2], []byte(","), raggedBody[1:cut], []byte("}\n"))
	bodies := map[string][]byte{
		"ragged":         raggedBody,
		"cols null":      appendResponse(nil, &Response{Rows: ragged.Rows}),
		"cols last":      colsLast,
		"widening":       appendResponse(nil, widening),
		"null and empty": []byte(`{"rows":[null,[{"type":"int","int":1}],[],null,[{"type":"int","int":2},{"type":"int","int":3}]]}`),
	}
	for name, body := range bodies {
		resp, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleDecode(body)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		if d := diffResponses(resp, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		for i := range resp.Rows {
			if len(resp.Rows[i]) != cap(resp.Rows[i]) {
				t.Fatalf("%s: row %d has len %d, cap %d", name, i, len(resp.Rows[i]), cap(resp.Rows[i]))
			}
			resp.Rows[i] = append(resp.Rows[i], rel.Str("appended"))
			if i+1 < len(resp.Rows) && !slices.EqualFunc(resp.Rows[i+1], want.Rows[i+1], rel.Value.BitEqual) {
				t.Fatalf("%s: appending to row %d made row %d %v, want %v", name, i, i+1, resp.Rows[i+1], want.Rows[i+1])
			}
		}
	}
}

// TestDecodeArenaFollowsSkewedRows: a body whose first rows hold short
// values (ints and NULLs, ≈ 20 wire bytes each) and whose later rows
// hold 256-byte strings must not size its arenas or row headers for the
// rest of the body at the first rows' bytes per value. It decodes such a
// body with the GC off and bounds what decodeResponse allocates beyond
// the strings (256 B each, an exact size class) against the value slots
// and row headers the rows fill: ≈ 1.3× with geometric growth, ≈ 11×
// when the arena and headers were sized from the first row alone.
func TestDecodeArenaFollowsSkewedRows(t *testing.T) {
	const short, long, strLen = 8, 500, 256
	resp := &Response{Cols: []string{"a", "b", "c", "d"}}
	for i := range short {
		resp.Rows = append(resp.Rows, []rel.Value{rel.Int(int64(i)), rel.NullOf(rel.TInt), rel.Int(7), rel.NullOf(rel.TString)})
	}
	for i := range long {
		row := make([]rel.Value, 4)
		for j := range row {
			row[j] = rel.Str(fmt.Sprintf("%0*d", strLen, 4*i+j))
		}
		resp.Rows = append(resp.Rows, row)
	}
	body := appendResponse(nil, resp)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := decodeResponse(body)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResponses(got, resp); d != "" {
		t.Fatal(d)
	}
	rows := short + long
	filled := 4*rows*int(unsafe.Sizeof(rel.Value{})) + rows*int(unsafe.Sizeof([]rel.Value{}))
	beyond := int(after.TotalAlloc-before.TotalAlloc) - 4*long*strLen
	t.Logf("%d B allocated beyond the strings for %d B of filled value slots and row headers (%.2f×)",
		beyond, filled, float64(beyond)/float64(filled))
	if beyond > 2*filled {
		t.Fatalf("decode allocated %d B beyond the strings, more than 2× the %d B its rows fill", beyond, filled)
	}
}

// TestWireRequestEncoding pins appendRequest to json.Marshal.
func TestWireRequestEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 1000; i++ {
		req := Request{Corpus: randWireString(rng), Tenant: randWireString(rng), XPath: randWireString(rng)}
		if rng.Intn(2) == 0 {
			req.Workers, req.TimeoutMS, req.MemEstimate = rng.Intn(5)-1, rng.Int63n(3)-1, rng.Int63()-rng.Int63()
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRequest(nil, req); !bytes.Equal(got, want) {
			t.Fatalf("case %d: %q, want %q", i, got, want)
		}
	}
}

// exactKeys reports whether every object member name in body is unique
// within its object and, where it case-folds to a member name of the
// reference types, spelled exactly as that name. encoding/json matches
// names case-insensitively and lets a repeated member update what an
// earlier one decoded; decodeResponse does neither, and the server
// writes neither.
func exactKeys(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	type frame struct {
		obj, wantKey bool
		seen         map[string]bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return true // malformed: both decoders must reject it anyway
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.obj && top.wantKey {
			if d, ok := tok.(json.Delim); ok && d == '}' {
				stack = stack[:len(stack)-1]
				continue
			}
			k := tok.(string)
			if top.seen[k] {
				return false
			}
			top.seen[k] = true
			for _, name := range wireNames {
				if k != name && strings.EqualFold(k, name) {
					return false
				}
			}
			top.wantKey = false
			continue
		}
		if top != nil && top.obj {
			top.wantKey = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{obj: true, wantKey: true, seen: map[string]bool{}})
		case json.Delim('['):
			stack = append(stack, &frame{})
		case json.Delim(']'):
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && stack[len(stack)-1].obj {
				stack[len(stack)-1].wantKey = true
			}
		}
	}
}

// wireSeeds are hand-written bodies for FuzzDecodeResponse: member
// order, whitespace, unknown members, null everywhere it may stand,
// escapes including surrogate pairs and lone surrogates, and a few
// malformed ones.
var wireSeeds = []string{
	"null",
	"{}",
	` { "elapsed_us" : 7 , "rows" : [ [ { "str" : "x" , "type" : "string" } ] ] , "cols" : [ "c" ] } ` + "\n",
	`{"cols":null,"rows":null,"stats":null,"workers":null,"queued_us":null,"elapsed_us":null}`,
	`{"cols":["a",null],"rows":[null,[],[{"type":"int","int":null,"null":null,"float":null,"str":null}]]}`,
	`{"extra":{"deep":[1,-2.5e+3,true,false,null,"s",{}]},"rows":[[{"type":"float","float":"-0","more":[]}]]}`,
	`{"cols":["\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00\ud800\udc00\ud800x\udc00\u2028"]}`,
	`{"rows":[[{"type":"float","float":"NaN"},{"type":"float","float":"+Inf"},{"type":"float","float":"1e400"}]]}`,
	`{"rows":[[{"type":"float","float":""}]]}`,
	`{"rows":[[{"type":"bool"}]]}`,
	`{"rows":[[null]]}`,
	`{"rows":[[{"type":"int","int":1.5}]]}`,
	`{"rows":[[{"type":"int","int":9999999999999999999}]]}`,
	`{"rows":[[{"type":"int","int":-9223372036854775809}]]}`,
	`{"rows":[[{"type":"int","int":-9223372036854775808}]]}`,
	`{"stats":{"RowsScanned":-0,"Branches":3,"Other":"x"},"workers":-1}`,
	`{"cols":["a"]}x`,
	`{"cols":["a"],}`,
	`{"cols":["a"`,
	`{"cols":["\ud800\u12"]}`,
	"{\"cols\":[\"\x01\"]}",
	"{\"cols\":[\"\xff\xed\xa0\x80\"]}",
	`{"COLS":["a"]}`,
	`{"cols":["a"],"cols":["b"]}`,
	`[]`,
	``,
	// Values that start as appendValue writes them and then deviate, so
	// canonValue must hand them to the general loop.
	`{"rows":[[{"type":"int","int":01}]]}`,
	`{"rows":[[{"type":"int","int":-0}]]}`,
	`{"rows":[[{"null":true,"type":"int","int":1.5}]]}`,
	`{"rows":[[{"type":"int","int":1e3}]]}`,
	`{"rows":[[{"type":"int","int":1234567890123456789},{"type":"int","int":-999999999999999999}]]}`,
	`{"rows":[[{"type":"int","int":0}]]}`,
	`{"rows":[[{"type":"string","str":"a\"b"}]]}`,
	"{\"rows\":[[{\"type\":\"string\",\"str\":\"\\u0041\\u00e9\"}]]}",
	`{"rows":[[{"type":"string","str":"caf` + "é" + `"}]]}`,
	"{\"rows\":[[{\"type\":\"string\",\"str\":\"a\xffb\"}]]}",
	"{\"rows\":[[{\"type\":\"string\",\"str\":\"a\tb\"}]]}",
	`{"rows":[[{"type":"string","str":""},{"type":"string","str":"<&>` + "\x7f" + `"}]]}`,
	`{"rows":[[{"type":"string","str":"unterminated}]]}`,
	`{"rows":[[{"type":"int", "int":5},{ "type":"int"},{"type":"string","str":"x" }]]}`,
	`{"rows":[[{"type":"int","int":5,"int":6}]]}`,
	`{"rows":[[{"type":"int","int":5,"str":"x"},{"type":"int","int":5,"other":[1]}]]}`,
	`{"rows":[[{"type":"string","str":"x","str":"y"}]]}`,
	`{"rows":[[{"null":false,"type":"int","int":5},{"null":true,"type":"int","int":5}]]}`,
	`{"rows":[[{"type":"int","int":5},{"type":"string","str":"a"}],[{"type":"int"}],[]],"cols":["a","b"]}`,
	`{"rows":[[{"type":"integer","int":5}]]}`,
	`{"rows":[[{"type":"int"`,
}

// realBodies returns /query 200 bodies the server writes for the
// battery's queries over a small movie corpus.
func realBodies(t testing.TB) [][]byte {
	t.Helper()
	m, _, built := movieFixture(t, 12)
	svc := New(Config{})
	if err := svc.RegisterBuilt("movie", built, m, nil); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	var out [][]byte
	for _, q := range serviceQueries {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(appendRequest(nil, Request{Corpus: "movie", Tenant: "t", XPath: q}))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", q, rec.Code, rec.Body)
		}
		out = append(out, rec.Body.Bytes())
	}
	return out
}

// FuzzDecodeResponse holds decodeResponse to the encoding/json
// reference on arbitrary bodies: it never panics; where the reference
// accepts a body whose member names are exactly spelled and unique
// (exactKeys), both read the same values bit for bit and the codec
// writes them back as encoding/json would; where the reference rejects
// it, so does decodeResponse.
func FuzzDecodeResponse(f *testing.F) {
	for _, b := range realBodies(f) {
		f.Add(b)
	}
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := decodeResponse(body)
		if !exactKeys(body) {
			return
		}
		want, werr := oracleDecode(body)
		switch {
		case werr != nil && gerr == nil:
			t.Fatalf("encoding/json rejects %q (%v); decodeResponse accepts it", body, werr)
		case werr == nil && gerr != nil:
			t.Fatalf("encoding/json accepts %q; decodeResponse: %v", body, gerr)
		case werr != nil:
			return
		}
		if d := diffResponses(got, want); d != "" {
			t.Fatalf("%q: %s", body, d)
		}
		if enc, ref := appendResponse(nil, got), oracleEncode(t, got); !bytes.Equal(enc, ref) {
			t.Fatalf("re-encoding %q:\n got %q\nwant %q", body, enc, ref)
		}
	})
}

// TestResponseBodyLimit: a /query body over the client's cap is an
// error that names the cap — with the length declared up front and
// with a chunked body of unknown length — and a body exactly at the cap
// is read whole.
func TestResponseBodyLimit(t *testing.T) {
	body := oracleEncode(t, &Response{Cols: []string{"c"}, Rows: [][]rel.Value{{rel.Str(strings.Repeat("x", 5000))}}})
	for _, chunked := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if !chunked {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			w.WriteHeader(http.StatusOK)
			w.Write(body[:100]) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write(body[100:]) //nolint:errcheck
		}))
		cl := NewClient(ts.URL, nil)
		cl.maxBody = int64(len(body))
		resp, err := cl.Query(context.Background(), Request{})
		if err != nil || len(resp.Rows) != 1 {
			t.Errorf("chunked=%v: body of exactly the cap: %v", chunked, err)
		}
		cl.maxBody = int64(len(body) - 1)
		_, err = cl.Query(context.Background(), Request{})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(len(body)-1)) {
			t.Errorf("chunked=%v: body one byte over a %d-byte cap: got %v, want an error naming the cap", chunked, len(body)-1, err)
		}
		ts.Close()
	}
}

// seekBody is a body shaped like a serve_seek_http answer: 1 000 rows of
// an outer-union result, an int key, a string, a NULL string and a small
// int, ≈ 120 bytes a row.
func seekBody() []byte {
	resp := &Response{Cols: []string{"ID", "title", "aka_title", "year"}}
	for i := range 1000 {
		resp.Rows = append(resp.Rows, []rel.Value{
			rel.Int(int64(100000 + 7*i)),
			rel.Str(fmt.Sprintf("Movie Title %05d", i)),
			rel.NullOf(rel.TString),
			rel.Int(int64(1950 + i%70)),
		})
	}
	return appendResponse(nil, resp)
}

// BenchmarkDecodeResponse decodes the server's bodies for the battery's
// queries and one seek-shaped body; b.SetBytes counts the bytes of all
// of them per iteration.
func BenchmarkDecodeResponse(b *testing.B) {
	bodies := append(realBodies(b), seekBody())
	n := 0
	for _, body := range bodies {
		n += len(body)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, body := range bodies {
			if _, err := decodeResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestPutBufDropsLargeBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	for i := 0; i < 4; i++ {
		if bp := getBuf(); cap(*bp) > maxPooledBuf {
			t.Fatalf("the pool handed back a %d-byte buffer", cap(*bp))
		}
	}
}
