package service

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/rel"
)

// The /query 200 body is one JSON object and a newline:
//
//	{"cols":["title",…],"rows":[[value,…],…],
//	 "stats":{"RowsScanned":n,"RowsSought":n,"Branches":n},
//	 "workers":n,"queued_us":n,"elapsed_us":n}
//
// "cols" is null when the result has no column list. A value is one of
//
//	{"null":true,"type":"int","int":n}
//	{"null":true,"type":"float","float":"g"}
//	{"null":true,"type":"string","str":"s"}
//
// where "null" appears only when true, "int" only when non-zero and
// "str" only when non-empty. "float" is always present, as
// strconv.FormatFloat(f, 'g', -1, 64), so NaN, ±Inf and −0.0 round-trip
// bit-exactly (a JSON number cannot carry them); a NULL float carries
// "0". Strings are escaped as encoding/json escapes them: `"`, `\` and
// control bytes, `<`, `>`, `&`, U+2028 and U+2029, and each invalid UTF-8
// byte written as the escape for U+FFFD.
//
// appendResponse writes exactly the bytes json.NewEncoder(w).Encode
// writes for the reference types in wire_test.go, and decodeResponse
// reads any JSON that encoding/json would decode into them to the same
// values; the differential tests and FuzzDecodeResponse pin both. Neither
// uses reflection: on the server the engine appends each row's encoding
// into a pooled buffer straight from the column vectors (see
// Service.handleQuery), the decoder walks the body once.

// maxPooledBuf is the largest buffer bufPool keeps. A rare huge response
// allocates its own buffer rather than pinning one in the pool.
const maxPooledBuf = 1 << 20

// bufPool recycles the buffers /query responses are encoded into on the
// server and read into on the client.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// appendResponse appends the wire form of resp, trailing newline
// included. The /query handler writes the same bytes in three parts
// around the engine's byte target — appendHead, each row's appendRow,
// appendTail — and this is the three parts over resp.Rows, the oracle
// its tests compare with.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = appendHead(dst, resp.Cols)
	for _, row := range resp.Rows {
		dst = appendRow(dst, row)
	}
	return appendTail(dst, len(resp.Rows), resp)
}

// appendHead appends the body up to the first row: the column list and
// the opening of the row array.
func appendHead(dst []byte, cols []string) []byte {
	dst = append(dst, `{"cols":`...)
	if cols == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, `,"rows":[`...)
}

// appendRow appends one row and the comma after it; appendTail drops
// the last row's. It is the engine.RowEncoder of the /query handler.
func appendRow(dst []byte, row []rel.Value) []byte {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, v)
	}
	return append(dst, ']', ',')
}

// appendTail closes the row array after rows rows, dropping the last
// one's comma, and appends resp's stats, grant and timings.
func appendTail(dst []byte, rows int, resp *Response) []byte {
	if rows > 0 {
		dst = dst[:len(dst)-1]
	}
	dst = append(dst, `],"stats":{"RowsScanned":`...)
	dst = strconv.AppendInt(dst, resp.Stats.RowsScanned, 10)
	dst = append(dst, `,"RowsSought":`...)
	dst = strconv.AppendInt(dst, resp.Stats.RowsSought, 10)
	dst = append(dst, `,"Branches":`...)
	dst = strconv.AppendInt(dst, resp.Stats.Branches, 10)
	dst = append(dst, `},"workers":`...)
	dst = strconv.AppendInt(dst, int64(resp.Workers), 10)
	dst = append(dst, `,"queued_us":`...)
	dst = strconv.AppendInt(dst, resp.Queued.Microseconds(), 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, resp.Elapsed.Microseconds(), 10)
	return append(dst, "}\n"...)
}

func appendValue(dst []byte, v rel.Value) []byte {
	dst = append(dst, '{')
	if v.Null {
		dst = append(dst, `"null":true,`...)
	}
	switch v.Typ {
	case rel.TInt:
		dst = append(dst, `"type":"int"`...)
		if v.I != 0 {
			dst = append(dst, `,"int":`...)
			dst = strconv.AppendInt(dst, v.I, 10)
		}
	case rel.TFloat:
		// FormatFloat's output ("NaN", "+Inf", "-0", "1e+21") needs no
		// escaping.
		dst = append(dst, `"type":"float","float":"`...)
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		dst = append(dst, '"')
	default:
		dst = append(dst, `"type":"string"`...)
		if v.S != "" {
			dst = append(dst, `,"str":`...)
			dst = appendString(dst, v.S)
		}
	}
	return append(dst, '}')
}

// appendRequest appends req as json.Marshal writes it.
func appendRequest(dst []byte, req Request) []byte {
	dst = append(dst, `{"corpus":`...)
	dst = appendString(dst, req.Corpus)
	dst = append(dst, `,"tenant":`...)
	dst = appendString(dst, req.Tenant)
	dst = append(dst, `,"xpath":`...)
	dst = appendString(dst, req.XPath)
	if req.Workers != 0 {
		dst = append(dst, `,"workers":`...)
		dst = strconv.AppendInt(dst, int64(req.Workers), 10)
	}
	if req.TimeoutMS != 0 {
		dst = append(dst, `,"timeout_ms":`...)
		dst = strconv.AppendInt(dst, req.TimeoutMS, 10)
	}
	if req.MemEstimate != 0 {
		dst = append(dst, `,"mem_estimate":`...)
		dst = strconv.AppendInt(dst, req.MemEstimate, 10)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on (its default).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// readBody reads a response body of declared length size (-1 when
// unknown) into a pooled buffer the caller hands back with putBuf. A
// body over limit bytes is an error naming the limit, never a silently
// truncated read.
func readBody(r io.Reader, size, limit int64) (*[]byte, error) {
	tooLarge := func() error {
		return fmt.Errorf("service: response body over the client's %d-byte limit", limit)
	}
	if size > limit {
		return nil, tooLarge()
	}
	bp := getBuf()
	b := *bp
	if size >= 0 {
		// One byte of slack lets the read that reports EOF land without
		// growing the buffer.
		b = slices.Grow(b, int(size)+1)
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 1)
		}
		end := cap(b)
		if int64(end) > limit+1 {
			end = int(limit + 1)
		}
		n, err := r.Read(b[len(b):end])
		b = b[:len(b)+n]
		*bp = b
		switch {
		case int64(len(b)) > limit:
			putBuf(bp)
			return nil, tooLarge()
		case err == io.EOF:
			return bp, nil
		case err != nil:
			putBuf(bp)
			return nil, err
		}
	}
}

// maxDepth is encoding/json's nesting limit, kept so that both accept
// the same inputs.
const maxDepth = 10000

// wireReader parses a /query body. Errors are sticky: after the first,
// every method returns a zero result and every loop ends, so the parse
// functions check err once at the end.
type wireReader struct {
	b       []byte
	i       int
	depth   int
	err     error
	scratch []byte // unescaped string bytes, valid until the next str
}

// decodeResponse parses a /query 200 body. Strings are copied out, so
// the result does not alias body. As with encoding/json, a null member
// leaves its field as it was, an unknown member is skipped, and members
// may come in any order.
func decodeResponse(body []byte) (*Response, error) {
	r := &wireReader{b: body}
	out := &Response{}
	if !r.null() {
		for more := r.enter('{'); more; more = r.next('}') {
			switch string(r.key()) {
			case "cols":
				out.Cols = r.cols()
			case "rows":
				out.Rows = r.rows(len(out.Cols))
			case "stats":
				r.stats(&out.Stats)
			case "workers":
				if n, ok := r.integer(); ok {
					out.Workers = int(n)
				}
			case "queued_us":
				if n, ok := r.integer(); ok {
					out.Queued = time.Duration(n) * time.Microsecond
				}
			case "elapsed_us":
				if n, ok := r.integer(); ok {
					out.Elapsed = time.Duration(n) * time.Microsecond
				}
			default:
				r.skip()
			}
		}
	}
	r.ws()
	if r.i < len(r.b) {
		r.fail("data after the response")
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

func (r *wireReader) cols() []string {
	if r.null() {
		return nil
	}
	cols := []string{}
	for more := r.enter('['); more; more = r.next(']') {
		var c string
		if !r.null() {
			c = string(r.str())
		}
		cols = append(cols, c)
	}
	return cols
}

// rows reads the row arrays. Rows are cut from a value arena with
// cap == len, so appending to one row never reaches the next. The first
// arena holds width values (the column count when "cols" came first);
// when one fills mid-row, the next is sized by estimate from the values
// read so far and the row's first values move over. The row headers
// grow the same way, from the rows read so far.
func (r *wireReader) rows(width int) [][]rel.Value {
	if r.null() {
		return nil
	}
	start := r.i
	rows := [][]rel.Value{}
	var (
		arena []rel.Value
		nv    int // values read so far
	)
	for more := r.enter('['); more; more = r.next(']') {
		var row []rel.Value
		if !r.null() {
			lo := len(arena)
			for more := r.enter('['); more; more = r.next(']') {
				if len(arena) == cap(arena) {
					n := max(r.estimate(nv, start), 16)
					if nv == 0 && width > 0 {
						n = width
					}
					fresh := make([]rel.Value, len(arena)-lo, len(arena)-lo+n)
					copy(fresh, arena[lo:])
					arena, lo = fresh, 0
				}
				v, ok := r.canonValue()
				if !ok {
					v = r.anyValue()
				}
				arena = append(arena, v)
				nv++
			}
			row = arena[lo:len(arena):len(arena)]
		}
		if len(rows) == cap(rows) {
			rows = slices.Grow(rows, 1+r.estimate(len(rows)+1, start))
		}
		rows = append(rows, row)
	}
	return rows
}

// estimate returns how many more items the rest of the body holds if
// they are as long as the n items read since byte start, but at most 2n:
// short items first and long ones after would otherwise reserve room for
// several times the items there are, so the guess grows geometrically
// instead of betting the body on the first items.
func (r *wireReader) estimate(n, start int) int {
	if n == 0 || r.i <= start {
		return 0
	}
	return int(min(int64(n)*int64(len(r.b)-r.i)/int64(r.i-start), 2*int64(n)))
}

func (r *wireReader) stats(s *engine.ExecStats) {
	if r.null() {
		return
	}
	for more := r.enter('{'); more; more = r.next('}') {
		var p *int64
		switch string(r.key()) {
		case "RowsScanned":
			p = &s.RowsScanned
		case "RowsSought":
			p = &s.RowsSought
		case "Branches":
			p = &s.Branches
		default:
			r.skip()
			continue
		}
		if n, ok := r.integer(); ok {
			*p = n
		}
	}
}

// anyValue reads one {"type":…} object with the general member loop;
// null reads as an object with no members, which names no type.
func (r *wireReader) anyValue() rel.Value {
	var (
		v      rel.Value
		typ    string
		fltErr error // a non-empty "float" ParseFloat rejects
	)
	if !r.null() {
		for more := r.enter('{'); more; more = r.next('}') {
			switch string(r.key()) {
			case "null":
				if !r.null() {
					v.Null = r.boolean()
				}
			case "type":
				if !r.null() {
					typ = wireType(r.str())
				}
			case "int":
				if n, ok := r.integer(); ok {
					v.I = n
				}
			case "float":
				if !r.null() {
					s := r.str()
					var err error
					v.F, err = strconv.ParseFloat(string(s), 64)
					fltErr = nil
					if err != nil && len(s) > 0 {
						fltErr = fmt.Errorf("service: bad float %q: %w", s, err)
					}
				}
			case "str":
				if !r.null() {
					v.S = string(r.str())
				}
			default:
				r.skip()
			}
		}
	}
	if r.err != nil {
		return rel.Value{}
	}
	switch typ {
	case "int":
		return rel.Value{Null: v.Null, Typ: rel.TInt, I: v.I}
	case "float":
		if fltErr != nil {
			r.err = fltErr
		}
		return rel.Value{Null: v.Null, Typ: rel.TFloat, F: v.F}
	case "string":
		return rel.Value{Null: v.Null, Typ: rel.TString, S: v.S}
	}
	r.err = fmt.Errorf("service: bad wire type %q", typ)
	return rel.Value{}
}

// canonValue reads a value in the exact bytes appendValue writes for an
// int or a string: `{`, an optional `"null":true,`, then `"type":"int"`
// with an optional `,"int":` and at most 18 digits with no leading zero,
// or `"type":"string"` with an optional `,"str":"…"` of ASCII bytes
// that need no escape, then `}`. On any other byte it consumes nothing
// and reports false, and anyValue reads the value: the input picks the
// path.
func (r *wireReader) canonValue() (rel.Value, bool) {
	if r.err != nil {
		return rel.Value{}, false
	}
	b, i := r.b, r.i
	var v rel.Value
	switch {
	case hasAt(b, i, `{"null":true,"type":"`):
		v.Null = true
		i += len(`{"null":true,"type":"`)
	case hasAt(b, i, `{"type":"`):
		i += len(`{"type":"`)
	default:
		return rel.Value{}, false
	}
	switch {
	case hasAt(b, i, `int"`):
		v.Typ = rel.TInt
		i += len(`int"`)
		if hasAt(b, i, `,"int":`) {
			i += len(`,"int":`)
			neg := i < len(b) && b[i] == '-'
			if neg {
				i++
			}
			j := i
			for j < len(b) && j-i <= 18 && '0' <= b[j] && b[j] <= '9' {
				v.I = v.I*10 + int64(b[j]-'0')
				j++
			}
			if j == i || j-i > 18 || b[i] == '0' {
				return rel.Value{}, false
			}
			if neg {
				v.I = -v.I
			}
			i = j
		}
	case hasAt(b, i, `string"`):
		v.Typ = rel.TString
		i += len(`string"`)
		if hasAt(b, i, `,"str":"`) {
			i += len(`,"str":"`)
			j := i
			for j < len(b) && b[j] != '"' {
				if c := b[j]; c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
					return rel.Value{}, false
				}
				j++
			}
			if j == len(b) {
				return rel.Value{}, false
			}
			v.S = string(b[i:j])
			i = j + 1
		}
	default:
		return rel.Value{}, false
	}
	if i == len(b) || b[i] != '}' {
		return rel.Value{}, false
	}
	r.i = i + 1
	return v, true
}

// hasAt reports whether b holds s at i.
func hasAt(b []byte, i int, s string) bool {
	return len(b)-i >= len(s) && string(b[i:i+len(s)]) == s
}

// wireType returns a "type" member as a string, without allocating for
// the three known ones.
func wireType(b []byte) string {
	switch string(b) {
	case "int":
		return "int"
	case "float":
		return "float"
	case "string":
		return "string"
	}
	return string(b)
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed JSON at byte %d: %s", r.i, what)
	}
}

func (r *wireReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end or
// after an error.
func (r *wireReader) peek() byte {
	if r.err != nil {
		return 0
	}
	r.ws()
	if r.i == len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// literal consumes word (true, false or null) or fails.
func (r *wireReader) literal(word string) {
	if r.err != nil {
		return
	}
	if len(r.b)-r.i < len(word) || string(r.b[r.i:r.i+len(word)]) != word {
		r.fail("invalid literal")
		return
	}
	r.i += len(word)
}

// null consumes a null literal if one is next.
func (r *wireReader) null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

func (r *wireReader) boolean() bool {
	switch r.peek() {
	case 't':
		r.literal("true")
		return r.err == nil
	case 'f':
		r.literal("false")
	default:
		r.fail("expected a boolean")
	}
	return false
}

// enter consumes the open bracket of an object or array and reports
// whether it has a first element; an empty one is consumed whole.
func (r *wireReader) enter(open byte) bool {
	if r.peek() != open {
		r.fail("expected " + string(open))
		return false
	}
	r.i++
	if r.depth++; r.depth > maxDepth {
		r.fail("nested too deeply")
		return false
	}
	if c := r.peek(); c == '}' && open == '{' || c == ']' && open == '[' {
		r.i++
		r.depth--
		return false
	}
	return true
}

// next consumes the separator after an element and reports whether
// another follows; at the close bracket it consumes that and reports
// false.
func (r *wireReader) next(close byte) bool {
	switch r.peek() {
	case ',':
		r.i++
		return true
	case close:
		r.i++
		r.depth--
		return false
	}
	r.fail("expected , or " + string(close))
	return false
}

// key reads an object member's name and its colon.
func (r *wireReader) key() []byte {
	k := r.str()
	if r.peek() != ':' {
		r.fail("expected :")
		return nil
	}
	r.i++
	return k
}

// str reads a string, unescaped and with each invalid UTF-8 byte
// replaced by U+FFFD as encoding/json decodes it. The result aliases the
// body or r.scratch, so a caller keeping it must copy it.
func (r *wireReader) str() []byte {
	if r.peek() != '"' {
		r.fail("expected a string")
		return nil
	}
	r.i++
	b, start, copied := r.b, r.i, false
	r.scratch = r.scratch[:0]
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			r.i = i + 1
			if !copied {
				return b[start:i]
			}
			r.scratch = append(r.scratch, b[start:i]...)
			return r.scratch
		case c < 0x20:
			r.i = i
			r.fail("control character in string")
			return nil
		case c == '\\':
			r.scratch = append(r.scratch, b[start:i]...)
			copied = true
			n := r.escape(i)
			if n == 0 {
				return nil
			}
			i += n
			start = i
		case c < utf8.RuneSelf:
			i++
		default:
			rn, size := utf8.DecodeRune(b[i:])
			if rn == utf8.RuneError && size == 1 {
				r.scratch = append(r.scratch, b[start:i]...)
				r.scratch = utf8.AppendRune(r.scratch, utf8.RuneError)
				copied = true
				start = i + 1
			}
			i += size
		}
	}
	r.i = len(b)
	r.fail("unterminated string")
	return nil
}

// escape appends the escape sequence at b[i] (a backslash) to r.scratch
// and returns its length, or 0 after failing. A UTF-16 surrogate pair
// spelled as two escapes is one rune; a lone surrogate is U+FFFD.
func (r *wireReader) escape(i int) int {
	b := r.b
	if i+1 < len(b) {
		switch c := b[i+1]; c {
		case '"', '\\', '/':
			r.scratch = append(r.scratch, c)
			return 2
		case 'b':
			r.scratch = append(r.scratch, '\b')
			return 2
		case 'f':
			r.scratch = append(r.scratch, '\f')
			return 2
		case 'n':
			r.scratch = append(r.scratch, '\n')
			return 2
		case 'r':
			r.scratch = append(r.scratch, '\r')
			return 2
		case 't':
			r.scratch = append(r.scratch, '\t')
			return 2
		case 'u':
			rn := hex4(b, i+2)
			if rn < 0 {
				break
			}
			n := 6
			if utf16.IsSurrogate(rn) {
				rn2 := rune(-1)
				if i+n+1 < len(b) && b[i+n] == '\\' && b[i+n+1] == 'u' {
					rn2 = hex4(b, i+n+2)
				}
				if dec := utf16.DecodeRune(rn, rn2); dec != utf8.RuneError {
					rn, n = dec, n+6
				} else {
					rn = utf8.RuneError
				}
			}
			r.scratch = utf8.AppendRune(r.scratch, rn)
			return n
		}
	}
	r.i = i
	r.fail("invalid escape")
	return 0
}

// hex4 decodes the four hex digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var rn rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rn = rn<<4 | rune(c)
	}
	return rn
}

// number reads a JSON number and returns its literal bytes.
func (r *wireReader) number() []byte {
	if r.peek(); r.err != nil {
		return nil
	}
	b, i := r.b, r.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		r.fail("invalid number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			r.fail("invalid number")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			r.fail("invalid number")
			return nil
		}
	}
	lit := b[r.i:i]
	r.i = i
	return lit
}

// integer reads an integer member: false for null, which leaves the
// field as it was, and after an error. As in encoding/json, a number
// with a fraction or exponent, or out of int64 range, is an error.
func (r *wireReader) integer() (int64, bool) {
	if r.null() {
		return 0, false
	}
	lit := r.number()
	if r.err != nil {
		return 0, false
	}
	if n, ok := smallInt(lit); ok {
		return n, true
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		r.fail("number " + string(lit) + " is not an int64")
		return 0, false
	}
	return n, true
}

// smallInt decodes an optionally negative run of at most 18 decimal
// digits, which cannot overflow int64.
func smallInt(lit []byte) (int64, bool) {
	digits := lit
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		n = -n
	}
	return n, true
}

// skip reads and discards one value of any kind.
func (r *wireReader) skip() {
	switch r.peek() {
	case '{':
		for more := r.enter('{'); more; more = r.next('}') {
			r.key()
			r.skip()
		}
	case '[':
		for more := r.enter('['); more; more = r.next(']') {
			r.skip()
		}
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.number()
	}
}
