package serve

import (
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// maxDepth is encoding/json's nesting limit. The body's object is
// depth 1; a container opened past depth maxDepth is refused.
const maxDepth = 10000

// maxPresize caps the buffer sized from Content-Length, so a header
// that promises more than the client sends costs nothing: a larger
// body grows the buffer as it arrives.
const maxPresize = 256 << 10

// readBody reads all of r (already capped by http.MaxBytesReader).
// hint is the declared Content-Length, or -1 when unknown.
func readBody(r io.Reader, hint int64) ([]byte, error) {
	size := int64(512)
	if hint > 0 {
		size = min(hint+1, maxPresize) // +1: the read that sees EOF needs room
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// rowsBody is a parsed predict body: n rows of cols values, row-major.
type rowsBody struct {
	vals    []float64
	n, cols int
	// ragged is the first row whose width is not cols (-1 when every
	// row has cols values) and raggedW its width. parsePredict reports
	// it after the model checks, in the order they have always run.
	ragged, raggedW int
}

// parser walks a body once; i is the next byte of b.
type parser struct {
	b []byte
	i int
}

// parseRows parses a predict body straight into its row-major values;
// the grammar is in the package doc.
func parseRows(b []byte) (rowsBody, error) {
	p := parser{b: b}
	body := rowsBody{ragged: -1}
	p.ws()
	if !p.eat('{') {
		return body, p.fail("body is not a JSON object")
	}
	if p.ws(); !p.eat('}') {
		for {
			p.ws()
			key, esc, err := p.str()
			if err != nil {
				return body, err
			}
			if p.ws(); !p.eat(':') {
				return body, p.fail("expected ':' after object key")
			}
			p.ws()
			if isRowsKey(key, esc) {
				err = p.rows(&body)
			} else {
				err = p.skip()
			}
			if err != nil {
				return body, err
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return body, p.fail("expected ',' or '}' after object member")
		}
	}
	if p.ws(); p.i < len(p.b) {
		return body, p.fail("data after the top-level object")
	}
	return body, nil
}

// rows parses the value of a "rows" member into body. A later "rows"
// member replaces an earlier one, as in encoding/json.
func (p *parser) rows(body *rowsBody) error {
	*body = rowsBody{vals: body.vals[:0], ragged: -1}
	if p.lit("null") {
		return nil
	}
	if !p.eat('[') {
		return p.fail(`"rows" is not an array`)
	}
	if p.ws(); p.eat(']') {
		return nil
	}
	if body.vals == nil {
		// Full-precision values take more than 8 bytes each.
		body.vals = make([]float64, 0, len(p.b)/8)
	}
	for {
		p.ws()
		start := p.i
		if !p.eat('[') {
			if p.lit("null") {
				return p.fail("row " + strconv.Itoa(body.n) + " is null")
			}
			return p.fail("row " + strconv.Itoa(body.n) + " is not an array")
		}
		w := 0
		if p.ws(); !p.eat(']') {
			for {
				p.ws()
				v, err := p.number(body.n, w)
				if err != nil {
					return err
				}
				body.vals = append(body.vals, v)
				w++
				p.ws()
				if p.eat(',') {
					continue
				}
				if p.eat(']') {
					break
				}
				return p.fail("expected ',' or ']' in row " + strconv.Itoa(body.n))
			}
		}
		switch {
		case body.n == 0:
			if w == 0 {
				return p.fail("row 0 has no values")
			}
			body.cols = w
			// Size the matrix by the share of the body row 0 took.
			est := w * (1 + (len(p.b)-p.i)/(p.i-start+1))
			body.vals = slices.Grow(body.vals, est-len(body.vals))
		case w != body.cols && body.ragged < 0:
			body.ragged, body.raggedW = body.n, w
		}
		body.n++
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return nil
		}
		return p.fail("expected ',' or ']' after row " + strconv.Itoa(body.n-1))
	}
}

// number parses one JSON number. The token is checked against the
// JSON grammar first, because strconv.ParseFloat also takes forms JSON
// does not (Inf, 0x1p3, 1_0, .5); it is then converted by the call
// encoding/json makes, so the bits are the same.
func (p *parser) number(row, col int) (float64, error) {
	end, ok := scanNumber(p.b, p.i)
	if !ok {
		if p.lit("null") {
			return 0, p.fail("value " + strconv.Itoa(col) + " of row " + strconv.Itoa(row) + " is null")
		}
		return 0, p.fail("value " + strconv.Itoa(col) + " of row " + strconv.Itoa(row) + " is not a number")
	}
	tok := p.b[p.i:end]
	// ParseFloat keeps no reference to its argument (its errors copy
	// it), so the token is passed without a copy.
	v, err := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if err != nil {
		return 0, p.fail("number " + string(tok[:min(len(tok), 32)]) + " is out of range")
	}
	p.i = end
	return v, nil
}

// scanNumber returns the end of the JSON number at b[i:]; ok is false
// when none starts there.
func scanNumber(b []byte, i int) (end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str scans the string at p.i, checking its escapes, and returns its
// raw contents and whether any escape occurs. Like encoding/json it
// does not insist on valid UTF-8.
func (p *parser) str() (raw []byte, esc bool, err error) {
	b := p.b
	if p.i >= len(b) || b[p.i] != '"' {
		return nil, false, p.fail("expected a string")
	}
	for i := p.i + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			raw = b[p.i+1 : i]
			p.i = i + 1
			return raw, esc, nil
		case c == '\\':
			esc = true
			if i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0 {
				i += 2
			} else if i+6 <= len(b) && b[i+1] == 'u' && isHex4(b[i+2:i+6]) {
				i += 6
			} else {
				p.i = i
				return nil, false, p.fail("invalid escape in string")
			}
		case c < 0x20:
			p.i = i
			return nil, false, p.fail("control character in string")
		default:
			i++
		}
	}
	p.i = len(b)
	return nil, false, p.fail("unterminated string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
			return false
		}
	}
	return true
}

// isRowsKey reports whether a member key names the rows field the way
// encoding/json matches a struct field: unescaped, then compared
// exactly or by Unicode case folding ("ROWS", and "rowſ" with U+017F).
func isRowsKey(raw []byte, esc bool) bool {
	// Each of the four runes is at most a 6-byte \u escape.
	if len(raw) > 24 {
		return false
	}
	if esc {
		var buf [24]byte
		raw = unescape(buf[:0], raw)
	}
	return strings.EqualFold(string(raw), "rows")
}

// unescape appends the string raw (escapes already checked by str)
// decodes to. A \u escape of a surrogate becomes U+FFFD: neither half
// of a pair, nor the pair, folds to a letter of "rows".
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			i++
			continue
		}
		c := raw[i+1]
		if c == 'u' {
			r, _ := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32)
			dst = utf8.AppendRune(dst, rune(r))
			i += 6
			continue
		}
		// \" \\ and \/ stand for themselves.
		if k := strings.IndexByte("bfnrt", c); k >= 0 {
			c = "\b\f\n\r\t"[k]
		}
		dst = append(dst, c)
		i += 2
	}
	return dst
}

// skip passes over one JSON value, checking its syntax. It does not
// recurse: open is the stack of containers ('{' or '[') it is inside.
func (p *parser) skip() error {
	var open []byte
	for {
		// A value starts here.
		p.ws()
		if p.i >= len(p.b) {
			return p.fail("unexpected end of body")
		}
		switch c := p.b[p.i]; c {
		case '{', '[':
			// The body's object is depth 1 and this container is
			// depth len(open)+2.
			if len(open)+2 > maxDepth {
				return p.fail("nesting deeper than " + strconv.Itoa(maxDepth))
			}
			open = append(open, c)
			p.i++
			if p.ws(); p.eat(closer(c)) {
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				if err := p.memberKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := p.str(); err != nil {
				return err
			}
		default:
			if !p.lit("true") && !p.lit("false") && !p.lit("null") {
				end, ok := scanNumber(p.b, p.i)
				if !ok {
					return p.fail("invalid value")
				}
				p.i = end
			}
		}
		// A value ended: close containers until one goes on.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			p.ws()
			if p.eat(',') {
				if top == '{' {
					if err := p.memberKey(); err != nil {
						return err
					}
				}
				break
			}
			if !p.eat(closer(top)) {
				return p.fail("expected ',' or '" + string(closer(top)) + "'")
			}
			open = open[:len(open)-1]
		}
	}
}

// closer is the byte that closes container c.
func closer(c byte) byte {
	if c == '{' {
		return '}'
	}
	return ']'
}

// memberKey scans `"key":` inside a skipped object.
func (p *parser) memberKey() error {
	p.ws()
	if _, _, err := p.str(); err != nil {
		return err
	}
	if p.ws(); !p.eat(':') {
		return p.fail("expected ':' after object key")
	}
	return nil
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// lit consumes the literal s if it is next.
func (p *parser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

func (p *parser) fail(msg string) error { return errors.New(msg + " at byte " + strconv.Itoa(p.i)) }
