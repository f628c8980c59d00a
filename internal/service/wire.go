package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/rel"
)

// The /query 200 body is one JSON object and a newline, with no
// whitespace and these members in this order:
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
// writes for the reference types in wire_test.go. decodeResponse reads
// those bytes and no others, to the values encoding/json reads from
// them: any other body is an error, even JSON encoding/json accepts. The
// differential tests, TestDecodeRefusesNonCanonical and
// FuzzDecodeResponse pin both. Neither
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

// wireReader parses a /query body. Errors are sticky: the first one
// moves i to the end of the body, so every later read fails to match and
// every loop ends, and decodeResponse checks err once at the end.
type wireReader struct {
	b       []byte
	i       int
	err     error
	scratch []byte // a string's unescaped bytes while str reads it
}

// decodeResponse parses a /query 200 body. It accepts exactly the bytes
// appendResponse writes and nothing else: the members in its order, no
// whitespace, each value and string spelled as appendValue and
// appendString spell it. Strings are copied out, so the result does not
// alias body.
func decodeResponse(body []byte) (*Response, error) {
	r := &wireReader{b: body}
	out := &Response{}
	r.lit(`{"cols":`)
	out.Cols = r.cols()
	r.lit(`,"rows":`)
	out.Rows = r.rows(len(out.Cols))
	r.lit(`,"stats":{"RowsScanned":`)
	out.Stats.RowsScanned = r.integer()
	r.lit(`,"RowsSought":`)
	out.Stats.RowsSought = r.integer()
	r.lit(`,"Branches":`)
	out.Stats.Branches = r.integer()
	r.lit(`},"workers":`)
	out.Workers = int(r.integer())
	r.lit(`,"queued_us":`)
	out.Queued = r.micros()
	r.lit(`,"elapsed_us":`)
	out.Elapsed = r.micros()
	r.lit("}\n")
	if r.i < len(r.b) {
		r.fail("data after the response")
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

func (r *wireReader) cols() []string {
	if r.has("null") {
		return nil
	}
	cols := []string{}
	for more := r.open(); more; more = r.next() {
		cols = append(cols, r.str())
	}
	return cols
}

// rows reads the row arrays. Rows are cut from a value arena with
// cap == len, so appending to one row never reaches the next. The first
// arena holds width values (the column count); when one fills mid-row,
// the next is sized by estimate from the values read so far and the
// row's first values move over. The row headers grow the same way, from
// the rows read so far.
func (r *wireReader) rows(width int) [][]rel.Value {
	start := r.i
	rows := [][]rel.Value{}
	var (
		arena []rel.Value
		nv    int // values read so far
	)
	for more := r.open(); more; more = r.next() {
		lo := len(arena)
		for more := r.open(); more; more = r.next() {
			if len(arena) == cap(arena) {
				n := max(r.estimate(nv, start), 16)
				if nv == 0 && width > 0 {
					n = width
				}
				fresh := make([]rel.Value, len(arena)-lo, len(arena)-lo+n)
				copy(fresh, arena[lo:])
				arena, lo = fresh, 0
			}
			arena = arena[:len(arena)+1]
			r.value(&arena[len(arena)-1])
			nv++
		}
		if len(rows) == cap(rows) {
			rows = slices.Grow(rows, 1+r.estimate(len(rows)+1, start))
		}
		rows = append(rows, arena[lo:len(arena):len(arena)])
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

// value reads one value as appendValue writes it into v, which is
// zero: `{`, `"null":true,` only for a NULL, then `"type":"int"` with
// `,"int":n` only when n is not 0, `"type":"float","float":"g"`, or
// `"type":"string"` with `,"str":s` only when s is not empty, then `}`.
// Only the fields the value sets are written, so an int or a NULL in a
// fresh arena pays no write barrier.
func (r *wireReader) value(v *rel.Value) {
	if r.has(`{"null":true,"type":"`) {
		v.Null = true
	} else {
		r.lit(`{"type":"`)
	}
	switch {
	case r.has(`int","int":`):
		v.Typ = rel.TInt
		if v.I = r.integer(); v.I == 0 {
			r.fail(`"int":0, which appendValue leaves out`)
		}
	case r.has(`int"`):
		v.Typ = rel.TInt
	case r.has(`float","float":"`):
		v.Typ = rel.TFloat
		v.F = r.float()
	case r.has(`string","str":`):
		v.Typ = rel.TString
		if v.S = r.str(); v.S == "" {
			r.fail(`"str":"", which appendValue leaves out`)
		}
	case r.has(`string"`):
		v.Typ = rel.TString
	default:
		r.fail("expected a value type")
	}
	if !r.eat('}') {
		r.fail("expected }")
	}
}

// integer reads an int64 as strconv.AppendInt writes it: 0, or an
// optional minus sign and up to 19 digits with no leading zero, within
// the int64 range.
func (r *wireReader) integer() int64 {
	b, i := r.b, r.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	j := i
	var u uint64
	for j < len(b) && j-i <= 19 && '0' <= b[j] && b[j] <= '9' {
		u = u*10 + uint64(b[j]-'0')
		j++
	}
	if j == i || j-i > 19 || b[i] == '0' && (j-i > 1 || neg) ||
		u > math.MaxInt64 && !(neg && u == -math.MinInt64) {
		r.fail("expected an integer as strconv.AppendInt writes it")
		return 0
	}
	r.i = j
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// micros reads a duration in microseconds, as time.Duration.Microseconds
// writes it: an integer no larger in magnitude than the largest Duration
// in microseconds.
func (r *wireReader) micros() time.Duration {
	n := r.integer()
	if n < math.MinInt64/1000 || n > math.MaxInt64/1000 {
		r.fail("duration out of range")
		return 0
	}
	return time.Duration(n) * time.Microsecond
}

// float reads a float's text and its closing quote, where the text is
// exactly what strconv.AppendFloat(f, 'g', -1, 64) writes for the f it
// parses to.
func (r *wireReader) float() float64 {
	b := r.b[r.i:]
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		r.fail("unterminated float")
		return 0
	}
	f, err := strconv.ParseFloat(string(b[:end]), 64)
	var g [32]byte
	if err != nil || string(strconv.AppendFloat(g[:0], f, 'g', -1, 64)) != string(b[:end]) {
		r.fail("expected a float as strconv.AppendFloat writes it")
		return 0
	}
	r.i += end + 1
	return f
}

// plain marks the bytes appendString writes as themselves: the ASCII
// bytes it does not escape. unescape maps each escape it writes to the
// rune that escape stands for; `\ufffd` stands for one invalid UTF-8
// byte. Both are read off appendString itself.
var plain, unescape = func() (plain [256]bool, unescape map[string]rune) {
	unescape = map[string]rune{`\ufffd`: utf8.RuneError}
	for rn := range rune(utf8.RuneSelf) {
		if s := string(appendString(nil, string(rn))); s[1:len(s)-1] != string(rn) {
			unescape[s[1:len(s)-1]] = rn
		} else {
			plain[rn] = true
		}
	}
	for _, rn := range []rune{'\u2028', '\u2029'} {
		s := string(appendString(nil, string(rn)))
		unescape[s[1:len(s)-1]] = rn
	}
	return plain, unescape
}()

// str reads a string as appendString writes it: plain bytes, escapes
// in unescape, and valid UTF-8 runes other than the two it escapes.
// The result is a copy, not an alias of the body.
func (r *wireReader) str() string {
	if !r.eat('"') {
		r.fail("expected a string")
		return ""
	}
	b, start := r.b, r.i
	i := start
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		r.i = i + 1
		return string(b[start:i])
	}
	r.scratch = append(r.scratch[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case plain[c]:
			r.scratch = append(r.scratch, c)
			i++
		case c == '"':
			r.i = i + 1
			return string(r.scratch)
		case c == '\\':
			n := 2
			if i+1 < len(b) && b[i+1] == 'u' {
				n = 6
			}
			rn, ok := unescape[string(b[i:min(i+n, len(b))])]
			if !ok {
				r.i = i
				r.fail("an escape appendString does not write")
				return ""
			}
			r.scratch = utf8.AppendRune(r.scratch, rn)
			i += n
		case c >= utf8.RuneSelf:
			rn, size := utf8.DecodeRune(b[i:])
			if rn == utf8.RuneError && size == 1 || rn == '\u2028' || rn == '\u2029' {
				r.i = i
				r.fail("invalid UTF-8 or an unescaped line separator")
				return ""
			}
			r.scratch = append(r.scratch, b[i:i+size]...)
			i += size
		default:
			r.i = i
			r.fail("a byte appendString escapes")
			return ""
		}
	}
	r.i = i
	r.fail("unterminated string")
	return ""
}

// open reads a '[' and reports whether an element follows; an empty
// array is read whole.
func (r *wireReader) open() bool {
	if !r.eat('[') {
		r.fail("expected [")
		return false
	}
	return !r.eat(']')
}

// next reads the ',' between elements and reports true, or the closing
// ']' and reports false.
func (r *wireReader) next() bool {
	if r.eat(',') {
		return true
	}
	if !r.eat(']') {
		r.fail("expected , or ]")
	}
	return false
}

// eat reads c if the body holds it next.
func (r *wireReader) eat(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// has reads s, which is not empty, if the body holds it next. Its first
// and last bytes are compared on their own, so that most mismatches,
// such as `{"null":true,"type":"` against a value that is not NULL, cost
// no call to compare the rest.
func (r *wireReader) has(s string) bool {
	if len(r.b)-r.i >= len(s) && r.b[r.i] == s[0] && r.b[r.i+len(s)-1] == s[len(s)-1] &&
		string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// lit reads s, which the body must hold next.
func (r *wireReader) lit(s string) {
	if !r.has(s) {
		r.fail("expected " + strconv.Quote(s))
	}
}

// fail records the first error and moves to the end of the body.
func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("service: malformed /query body at byte %d: %s", r.i, what)
	}
	r.i = len(r.b)
}
