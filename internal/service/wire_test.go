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
// them, byte for byte, and decodeResponse, which accepts only those
// bytes, must read what json.Unmarshal reads into them, bit for bit.

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
// The bodies cover rows of unequal width, empty rows, "cols" null (no
// column count to size the first arena by), and rows that widen down the
// body, so that an arena sized from the rows read so far fills mid-row
// again and again.
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
	bodies := map[string][]byte{
		"ragged":    appendResponse(nil, ragged),
		"cols null": appendResponse(nil, &Response{Rows: ragged.Rows}),
		"widening":  appendResponse(nil, widening),
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

// wireBody is a body as appendResponse writes it for a zero Stats, grant
// and timings, around cols and rows given as appendHead and appendRow
// write them.
func wireBody(cols, rows string) string {
	return `{"cols":` + cols + `,"rows":` + rows +
		`,"stats":{"RowsScanned":0,"RowsSought":0,"Branches":0},"workers":0,"queued_us":0,"elapsed_us":0}` + "\n"
}

// wireSeeds are hand-written bodies appendResponse can write, for
// FuzzDecodeResponse: nil, empty and ragged column lists and rows, NULLs
// with and without a payload, every escape appendString writes, the
// special floats, and the ends of each integer range.
var wireSeeds = []string{
	wireBody("null", "[]"),
	wireBody("[]", "[[]]"),
	wireBody(`["a",""]`, `[[],[{"type":"int","int":1}],[{"null":true,"type":"int"},{"type":"int","int":2},{"type":"string"}]]`),
	wireBody(`["\"\\\b\f\n\r\t\u0000\u001f\u003c\u003e\u0026\ufffd\u2028\u2029`+"é中😀\x7f\xef\xbf\xbd"+`"]`, "[]"),
	wireBody(`["title"]`, `[[{"type":"string","str":"a\"b/c"},{"null":true,"type":"string","str":"left over"},{"type":"string","str":"caf`+"é"+`"}]]`),
	wireBody("[]", `[[{"type":"float","float":"NaN"},{"type":"float","float":"+Inf"},{"type":"float","float":"-Inf"},{"type":"float","float":"-0"},`+
		`{"type":"float","float":"1e+21"},{"type":"float","float":"5e-324"},{"type":"float","float":"0.1"},{"null":true,"type":"float","float":"0"}]]`),
	wireBody("[]", `[[{"type":"int","int":9223372036854775807},{"type":"int","int":-9223372036854775808},{"type":"int","int":-999999999999999999}]]`),
	`{"cols":[],"rows":[],"stats":{"RowsScanned":9223372036854775807,"RowsSought":-9223372036854775808,"Branches":1},` +
		`"workers":-1,"queued_us":-9223372036854775,"elapsed_us":9223372036854775}` + "\n",
}

// wireBase is a body appendResponse can write; most of wireRefused
// deviate from it in one place.
var wireBase = wireBody(`["a"]`, `[[{"type":"int","int":5},{"type":"string","str":"x"},{"type":"float","float":"1"}]]`)

// wireRefused are bodies appendResponse cannot write, most of them JSON
// that encoding/json reads without complaint, each named for what is
// wrong with it.
var wireRefused = func() [][2]string {
	swap := func(old, new string) string {
		if !strings.Contains(wireBase, old) {
			panic(fmt.Sprintf("the wireBase body holds no %q", old))
		}
		return strings.Replace(wireBase, old, new, 1)
	}
	str := func(s string) string { return wireBody(`["`+s+`"]`, "[]") }
	return [][2]string{
		{"empty", ""},
		{"null", "null"},
		{"empty object", "{}"},
		{"array", "[]"},
		{"leading whitespace", " " + wireBase},
		{"whitespace", swap(`,"rows"`, `, "rows"`)},
		{"newline inside", swap(`"stats":{`, "\"stats\":\n{")},
		{"cols last", `{"rows":[],"cols":null,"stats":{"RowsScanned":0,"RowsSought":0,"Branches":0},"workers":0,"queued_us":0,"elapsed_us":0}` + "\n"},
		{"stats out of order", swap(`"RowsScanned":0,"RowsSought":0`, `"RowsSought":0,"RowsScanned":0`)},
		{"value members swapped", swap(`{"type":"int","int":5}`, `{"int":5,"type":"int"}`)},
		{"unknown member", swap(`,"workers"`, `,"extra":1,"workers"`)},
		{"unknown stat", swap(`"Branches":0`, `"Branches":0,"Other":0`)},
		{"unknown value member", swap(`"int":5}`, `"int":5,"other":[1]}`)},
		{"repeated member", swap(`,"rows"`, `,"cols":["b"],"rows"`)},
		{"repeated value member", swap(`"int":5}`, `"int":5,"int":6}`)},
		{"case-folded member", swap(`"cols"`, `"COLS"`)},
		{"missing member", swap(`,"elapsed_us":0`, ``)},
		{"missing float member", swap(`"float","float":"1"}`, `"float"}`)},
		{"null rows", wireBody("null", "null")},
		{"null stats", swap(`{"RowsScanned":0,"RowsSought":0,"Branches":0}`, "null")},
		{"null workers", swap(`"workers":0`, `"workers":null`)},
		{"null cols entry", wireBody(`["a",null]`, "[]")},
		{"null row", wireBody("null", "[null]")},
		{"null and empty rows", wireBody("null", `[null,[{"type":"int","int":1}],[],null]`)},
		{"null value", wireBody("null", "[[null]]")},
		{"null false", swap(`{"type":"int","int":5}`, `{"null":false,"type":"int","int":5}`)},
		{"null null", swap(`{"type":"int","int":5}`, `{"null":null,"type":"int","int":5}`)},
		{"unknown type", swap(`"type":"int"`, `"type":"bool"`)},
		{"longer type", swap(`"type":"int"`, `"type":"integer"`)},
		{"int and str", swap(`"int":5}`, `"int":5,"str":"x"}`)},
		{"int null", swap(`"int":5`, `"int":null`)},
		{"int 0", swap(`"int":5`, `"int":0`)},
		{"int leading zero", swap(`"int":5`, `"int":05`)},
		{"int -0", swap(`"int":5`, `"int":-0`)},
		{"stat -0", swap(`"Branches":0`, `"Branches":-0`)},
		{"stat leading zero", swap(`"Branches":0`, `"Branches":00`)},
		{"int plus", swap(`"int":5`, `"int":+5`)},
		{"int fraction", swap(`"int":5`, `"int":5.0`)},
		{"int exponent", swap(`"int":5`, `"int":5e0`)},
		{"int as string", swap(`"int":5`, `"int":"5"`)},
		{"int over int64", swap(`"int":5`, `"int":9223372036854775808`)},
		{"int under int64", swap(`"int":5`, `"int":-9223372036854775809`)},
		{"int of 20 digits", swap(`"int":5`, `"int":10000000000000000000`)},
		{"queued over Duration", swap(`"queued_us":0`, `"queued_us":9223372036854776`)},
		{"elapsed under Duration", swap(`"elapsed_us":0`, `"elapsed_us":-9223372036854776`)},
		{"str empty", swap(`"str":"x"`, `"str":""`)},
		{"str null", swap(`"str":"x"`, `"str":null`)},
		{"float 1.0", swap(`"float":"1"`, `"float":"1.0"`)},
		{"float empty", swap(`"float":"1"`, `"float":""`)},
		{"float exponent case", swap(`"float":"1"`, `"float":"1E+21"`)},
		{"float exponent digits", swap(`"float":"1"`, `"float":"1e21"`)},
		{"float hex", swap(`"float":"1"`, `"float":"0x1p-2"`)},
		{"float inf", swap(`"float":"1"`, `"float":"Inf"`)},
		{"float out of range", swap(`"float":"1"`, `"float":"1e400"`)},
		{"float as number", swap(`"float":"1"`, `"float":1`)},
		{"float unterminated", `{"cols":null,"rows":[[{"type":"float","float":"1`},
		{`escape \/`, str(`a\/b`)},
		{"escape A", str(`\u0041`)},
		{`escape "`, str(`\u0022`)},
		{"escape e-acute", str(`\u00e9`)},
		{"escape < in upper case", str(`\u003C`)},
		{"escape FFFD in upper case", str(`\uFFFD`)},
		{"escape surrogate pair", str(`\ud83d\ude00`)},
		{"escape lone surrogate", str(`\ud800`)},
		{"escape truncated", str(`\u00`)},
		{"raw <", str("<")},
		{"raw &", str("a&b")},
		{"raw tab", str("a\tb")},
		{"raw control byte", str("\x01")},
		{"raw U+2028", str("\xe2\x80\xa8")},
		{"raw invalid UTF-8", str("a\xffb")},
		{"raw overlong", str("\xc0\xaf")},
		{"raw surrogate", str("\xed\xa0\x80")},
		{"raw truncated rune", str("\xe2\x82")},
		{"unterminated string", `{"cols":["abc`},
		{"no final newline", wireBase[:len(wireBase)-1]},
		{"CRLF", wireBase[:len(wireBase)-1] + "\r\n"},
		{"trailing newline", wireBase + "\n"},
		{"trailing data", wireBase + "x"},
		{"second body", wireBase + wireBase},
		{"truncated", wireBase[:len(wireBase)/2]},
		{"trailing comma", swap(`["a"]`, `["a",]`)},
	}
}()

// TestDecodeRefusesNonCanonical: decodeResponse reads appendResponse's
// grammar and nothing else, so each of wireRefused is an error.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	if _, err := decodeResponse([]byte(wireBase)); err != nil {
		t.Fatalf("the base body: %v", err)
	}
	readable := 0
	for _, c := range wireRefused {
		if got, err := decodeResponse([]byte(c[1])); err == nil {
			t.Errorf("%s: decodeResponse accepts %q as %+v", c[0], c[1], got)
		}
		if _, err := oracleDecode([]byte(c[1])); err == nil {
			readable++
		}
	}
	t.Logf("encoding/json reads %d of the %d refused bodies", readable, len(wireRefused))
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

// FuzzDecodeResponse holds decodeResponse to appendResponse's grammar on
// arbitrary bodies, seeded with the server's bodies, the canonical
// wireSeeds and the refused bodies just off them: it never panics; a body it accepts, encoding/json
// also accepts and reads to the same values bit for bit; and an accepted
// body is exactly what appendResponse writes for what was read, unless
// it holds a \ufffd escape (an invalid byte on the server, which reads
// back as U+FFFD and is written as that rune).
func FuzzDecodeResponse(f *testing.F) {
	for _, b := range realBodies(f) {
		f.Add(b)
	}
	for _, s := range wireSeeds {
		if _, err := decodeResponse([]byte(s)); err != nil {
			f.Fatalf("seed %q: %v", s, err)
		}
		f.Add([]byte(s))
	}
	for _, c := range wireRefused {
		f.Add([]byte(c[1]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeResponse(body)
		if err != nil {
			return
		}
		want, err := oracleDecode(body)
		if err != nil {
			t.Fatalf("decodeResponse accepts %q; encoding/json: %v", body, err)
		}
		if d := diffResponses(got, want); d != "" {
			t.Fatalf("%q: %s", body, d)
		}
		if enc := appendResponse(nil, got); !bytes.Contains(body, []byte(`\ufffd`)) && !bytes.Equal(enc, body) {
			t.Fatalf("decodeResponse accepts %q, which re-encodes as %q", body, enc)
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
