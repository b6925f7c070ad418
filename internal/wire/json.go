package wire

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// JSON bodies of the estimate endpoints.
//
// The strict reader accepts exactly the two canonical request shapes,
// {"query":"…"} and {"queries":["…",…]}, with any JSON whitespace around
// their tokens, and decodes their strings the way encoding/json does: every
// escape, surrogate pairs, and U+FFFD in place of invalid UTF-8 and lone
// surrogates. It reports false for any other body — a case-variant,
// escaped or duplicate key, null, an unknown field, trailing bytes — and
// the caller then hands the same bytes to encoding/json, so the reader only
// ever answers a body the way the reflective decoder would have. Strings
// are unescaped into one arena per body, with the same aliasing contract as
// DecodeRequest: the arena is written once, never reused, and owned by the
// garbage collector, so the caller may recycle the body immediately and
// retain the strings indefinitely.
//
// The encoders append the two success responses byte for byte as
// json.Encoder renders them, trailing newline included. encoding/json
// refuses NaN and ±Inf; the encoders report false for them so the caller
// can hand the value to encoding/json and keep its behaviour.

// DecodeJSONQuery decodes a {"query":"…"} body. ok is false for any other
// body.
func DecodeJSONQuery(body []byte) (query string, ok bool) {
	r := jsonReader{b: body}
	if !r.token(`{`) || !r.token(`"query"`) || !r.token(`:`) {
		return "", false
	}
	if query, ok = r.str(); !ok || !r.token(`}`) || !r.end() {
		return "", false
	}
	return query, true
}

// AppendJSONQueries decodes a {"queries":["…",…]} body and appends its
// strings to dst. ok is false for any other body, and dst is returned
// unchanged.
func AppendJSONQueries(dst []string, body []byte) ([]string, bool) {
	n0 := len(dst)
	r := jsonReader{b: body}
	ok := r.token(`{`) && r.token(`"queries"`) && r.token(`:`) && r.token(`[`)
	if ok && !r.token(`]`) {
		for ok {
			var q string
			if q, ok = r.str(); !ok {
				break
			}
			dst = append(dst, q)
			if r.token(`]`) {
				break
			}
			ok = r.token(`,`)
		}
	}
	if !ok || !r.token(`}`) || !r.end() {
		clear(dst[n0:]) // a recycled dst must not pin the arena
		return dst[:n0], false
	}
	return dst, true
}

// jsonReader walks one body. arena receives the unescaped strings: it is
// sized at the first string to the rest of the body, which every escape
// only shrinks (only invalid UTF-8 grows, one byte to U+FFFD's three), and
// it is only ever appended to, so a view taken into it stays valid even
// when an append moves it (the view keeps the old array alive, and nothing
// writes there again).
type jsonReader struct {
	b     []byte
	i     int
	arena []byte
}

// skipSpace skips JSON whitespace.
func (r *jsonReader) skipSpace() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// token consumes whitespace and then tok, reporting whether tok was there.
func (r *jsonReader) token(tok string) bool {
	r.skipSpace()
	if len(r.b)-r.i < len(tok) || string(r.b[r.i:r.i+len(tok)]) != tok {
		return false
	}
	r.i += len(tok)
	return true
}

// end reports whether only whitespace is left.
func (r *jsonReader) end() bool {
	r.skipSpace()
	return r.i == len(r.b)
}

// str decodes the string at the read position into the arena and returns
// a view of it.
func (r *jsonReader) str() (string, bool) {
	r.skipSpace()
	if r.i == len(r.b) || r.b[r.i] != '"' {
		return "", false
	}
	r.i++
	if r.arena == nil {
		r.arena = make([]byte, 0, len(r.b)-r.i)
	}
	start := len(r.arena)
	for r.i < len(r.b) {
		// Copy the run of bytes that stand for themselves: printable ASCII
		// other than the quote and the backslash.
		j := r.i
		for ; j < len(r.b); j++ {
			if c := r.b[j]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
				break
			}
		}
		r.arena = append(r.arena, r.b[r.i:j]...)
		r.i = j
		if j == len(r.b) {
			break
		}
		switch c := r.b[j]; {
		case c == '"':
			r.i++
			if len(r.arena) == start {
				return "", true
			}
			return unsafe.String(&r.arena[start], len(r.arena)-start), true
		case c == '\\':
			if !r.escape() {
				return "", false
			}
		case c < 0x20:
			return "", false // control characters must be escaped
		default:
			rr, size := utf8.DecodeRune(r.b[r.i:])
			if rr == utf8.RuneError && size == 1 {
				r.arena = utf8.AppendRune(r.arena, unicode.ReplacementChar)
			} else {
				r.arena = append(r.arena, r.b[r.i:r.i+size]...)
			}
			r.i += size
		}
	}
	return "", false // unterminated
}

// escape decodes the escape sequence at the read position.
func (r *jsonReader) escape() bool {
	if r.i+1 == len(r.b) {
		return false
	}
	var c byte
	switch r.b[r.i+1] {
	case '"', '\\', '/':
		c = r.b[r.i+1]
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		rr := hex4(r.b[r.i:])
		if rr < 0 {
			return false
		}
		r.i += 6
		if utf16.IsSurrogate(rr) {
			// A valid pair is consumed whole; anything else leaves the next
			// escape to be decoded on its own and this half becomes U+FFFD.
			if pair := utf16.DecodeRune(rr, hex4(r.b[r.i:])); pair != unicode.ReplacementChar {
				r.i += 6
				rr = pair
			} else {
				rr = unicode.ReplacementChar
			}
		}
		r.arena = utf8.AppendRune(r.arena, rr)
		return true
	default:
		return false
	}
	r.arena = append(r.arena, c)
	r.i += 2
	return true
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range s[2:6] {
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
		rr = rr<<4 | rune(c)
	}
	return rr
}

// AppendJSONCardinality appends {"cardinality":v} and a newline to dst. ok
// is false, and dst is returned unchanged, when v is NaN or infinite.
func AppendJSONCardinality(dst []byte, v float64) ([]byte, bool) {
	if !finite(v) {
		return dst, false
	}
	dst = append(dst, `{"cardinality":`...)
	dst = appendJSONFloat(dst, v)
	return append(dst, "}\n"...), true
}

// AppendJSONCardinalities appends {"cardinalities":[…],"count":n} and a
// newline to dst. ok is false, and dst is returned unchanged, when any
// value is NaN or infinite.
func AppendJSONCardinalities(dst []byte, vs []float64) ([]byte, bool) {
	for _, v := range vs {
		if !finite(v) {
			return dst, false
		}
	}
	dst = append(dst, `{"cardinalities":`...)
	if vs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range vs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(vs)), 10)
	return append(dst, "}\n"...), true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendJSONFloat appends a finite float64 as encoding/json renders it:
// the shortest representation in 'f' format, or in 'e' format below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded (e-9, not
// e-09).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
