package protocol

// The HTTP body decoder: one pass over the inflated stream that parses
// the request JSON as it arrives, so the document is never held in
// memory. It accepts exactly what encoding/json accepts for the same
// struct and decodes it to the same values (same float bits, nil vs
// empty slices, duplicate keys decoding over earlier values, keys
// matched case-insensitively); FuzzDecodeBodies checks it against
// json.Unmarshal.

import (
	"encoding/base64"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"voiceguard/internal/gunzip"
)

// maxDepth is encoding/json's nesting limit, counted from the root.
const maxDepth = 10000

const (
	// b64Batch is how many base64 characters are decoded at a time; a
	// multiple of 4, so a batch without padding decodes on its own.
	b64Batch = 4 << 10
	// outBlockSize is the size of the blocks a byte field's decoded
	// bytes collect in before the one exact-size copy.
	outBlockSize = 64 << 10
)

// Byte classes of string content.
const (
	strPlain = iota // printable ASCII other than '"' and '\\'
	strHigh         // part of a multi-byte UTF-8 sequence, or invalid
	strStop         // '"', '\\' or a control character
)

var strClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == '"' || c == '\\' || c < 0x20:
			t[c] = strStop
		case c >= utf8.RuneSelf:
			t[c] = strHigh
		}
	}
	return t
}()

// b64Char marks the standard base64 alphabet, padding excluded.
var b64Char = func() (t [256]bool) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := 0; i < len(alphabet); i++ {
		t[alphabet[i]] = true
	}
	return t
}()

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// decoder reads one JSON document from an inflated request body, in
// place in the inflater's window or in the pipe's slot.
type decoder struct {
	// buf is the current chunk of inflated bytes, consumed up to pos;
	// next replaces it once it is used up, with the next chunk or the
	// error that ends the stream.
	buf  []byte
	pos  int
	next func() ([]byte, error)
	// left is how many more inflated bytes the size cap lets through:
	// MaxPayloadBytes+1 at the start, so reaching 0 breaches the cap.
	left int64
	// rerr is the first read error other than the end of the stream.
	rerr error
	// what names the request in errors.
	what  string
	depth int
	// tok holds the current key, string or number literal.
	tok []byte
	// text holds base64 characters not yet decoded; padded is set once
	// it holds '=', after which it is decoded only as a whole.
	text   []byte
	padded bool
	batch  [b64Batch / 4 * 3]byte
	// out collects a byte field's decoded bytes in outBlockSize blocks,
	// reused by every byte field of the document; used counts them.
	out  [][]byte
	used int
}

// decodeBody inflates a gzip body and decodes its JSON document, whose
// top-level object members go to member. Like the buffered decoders
// it replaced, a read error outranks a size-cap breach, which outranks
// a parse error: a malformed document is still read to its end.
//
// The first chunk is inflated here. When the stream goes on past it
// and a pipe is free, a helper goroutine inflates the rest, one pipe
// slot ahead of the parser; either way the parser sees the same bytes
// and errors in the same order. decodeBody joins the helper before it
// returns, so r is never read after that.
func decodeBody(r io.Reader, what string, member func(d *decoder, key []byte, c byte) error) error {
	zr, err := gunzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("protocol: opening gzip stream: %w", err)
	}
	d := &decoder{left: MaxPayloadBytes + 1, what: what}
	if p := startPipe(zr, d.left); p != nil {
		defer p.close()
		d.next = p.next
	} else {
		d.next = func() ([]byte, error) {
			zr.Discard(len(d.buf))
			return zr.Peek()
		}
	}
	perr := d.document(member)
	if perr != nil && d.rerr == nil {
		for {
			buf, err := d.window()
			if err != nil {
				break // window records a read error
			}
			d.discard(len(buf))
		}
	}
	switch {
	case d.rerr != nil:
		return fmt.Errorf("protocol: reading %s: %w", what, d.rerr)
	case d.left == 0:
		return ErrTooLarge
	case perr != nil:
		return perr
	}
	return nil
}

// document decodes the top-level value, an object or null, then reads
// on to the end of the stream: only whitespace may follow the value,
// and reaching the end runs gzip's CRC-32 and size checks.
func (d *decoder) document(member func(d *decoder, key []byte, c byte) error) error {
	c, err := d.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		err = d.object(func(key []byte, c byte) error { return member(d, key, c) })
	case 'n':
		err = d.literal("ull")
	default:
		err = d.mismatch(c, "object")
	}
	if err != nil {
		return err
	}
	for {
		buf, err := d.window()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for _, c := range buf {
			if !isSpace(c) {
				return fmt.Errorf("%w: invalid character %q after top-level value", d.parsing(), c)
			}
		}
		d.discard(len(buf))
	}
}

// parsing is the error every parse error wraps, naming the request.
func (d *decoder) parsing() error {
	return fmt.Errorf("protocol: parsing %s", d.what)
}

// fail records a read error; the end of the stream inside the value is
// a syntax error.
func (d *decoder) fail(err error) error {
	if err == io.EOF {
		return fmt.Errorf("%w: unexpected end of JSON input", d.parsing())
	}
	if d.rerr == nil {
		d.rerr = err
	}
	return err
}

// window returns the inflated bytes not yet consumed, taking the next
// chunk when none are left; io.EOF marks the end of the stream or of the size
// cap. Once the cap is reached, an error the inflater meets before its
// next byte still counts, as it did when the cap's last byte came in
// the same read as the error.
func (d *decoder) window() ([]byte, error) {
	if d.pos == len(d.buf) {
		buf, err := d.next()
		d.buf, d.pos = buf, 0
		if err != nil {
			if err != io.EOF && d.rerr == nil {
				d.rerr = err
			}
			return nil, err
		}
	}
	buf := d.buf[d.pos:]
	if int64(len(buf)) > d.left {
		buf = buf[:d.left]
	}
	if len(buf) == 0 {
		return nil, io.EOF
	}
	return buf, nil
}

// discard drops n bytes that window returned.
func (d *decoder) discard(n int) {
	d.pos += n
	d.left -= int64(n)
}

func (d *decoder) readByte() (byte, error) {
	buf, err := d.window()
	if err != nil {
		return 0, d.fail(err)
	}
	d.discard(1)
	return buf[0], nil
}

func (d *decoder) nonSpace() (byte, error) {
	for {
		c, err := d.readByte()
		if err != nil || !isSpace(c) {
			return c, err
		}
	}
}

// literal matches the rest of true, false or null.
func (d *decoder) literal(rest string) error {
	for i := 0; i < len(rest); i++ {
		c, err := d.readByte()
		if err != nil {
			return err
		}
		if c != rest[i] {
			return fmt.Errorf("%w: invalid character %q in literal", d.parsing(), c)
		}
	}
	return nil
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return fmt.Errorf("%w: exceeded max depth", d.parsing())
	}
	return nil
}

// mismatch reports a value of the wrong JSON type, which encoding/json
// refuses as an UnmarshalTypeError.
func (d *decoder) mismatch(c byte, want string) error {
	return fmt.Errorf("%w: cannot decode value starting %q into %s", d.parsing(), c, want)
}

// object decodes an object whose '{' has been read, passing each key
// and the first byte of its value to member, which consumes the value.
// key is valid only until member decodes the value.
func (d *decoder) object(member func(key []byte, c byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	c, err := d.nonSpace()
	if err != nil || c == '}' {
		d.depth--
		return err
	}
	for {
		if c != '"' {
			return fmt.Errorf("%w: invalid character %q looking for beginning of object key string", d.parsing(), c)
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if c, err = d.nonSpace(); err != nil {
			return err
		}
		if c != ':' {
			return fmt.Errorf("%w: invalid character %q after object key", d.parsing(), c)
		}
		if c, err = d.nonSpace(); err != nil {
			return err
		}
		if err := member(key, c); err != nil {
			return err
		}
		if c, err = d.nonSpace(); err != nil {
			return err
		}
		switch c {
		case ',':
			if c, err = d.nonSpace(); err != nil {
				return err
			}
		case '}':
			d.depth--
			return nil
		default:
			return fmt.Errorf("%w: invalid character %q after object key:value pair", d.parsing(), c)
		}
	}
}

// array decodes an array whose '[' has been read, passing the first
// byte of each element to elem, which consumes the element.
func (d *decoder) array(elem func(c byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	c, err := d.nonSpace()
	if err != nil || c == ']' {
		d.depth--
		return err
	}
	for {
		if err := elem(c); err != nil {
			return err
		}
		if c, err = d.nonSpace(); err != nil {
			return err
		}
		switch c {
		case ',':
			if c, err = d.nonSpace(); err != nil {
				return err
			}
		case ']':
			d.depth--
			return nil
		default:
			return fmt.Errorf("%w: invalid character %q after array element", d.parsing(), c)
		}
	}
}

// skip validates and drops a value of any type.
func (d *decoder) skip(c byte) error {
	switch {
	case c == '{':
		return d.object(func(_ []byte, c byte) error { return d.skip(c) })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, _, err := d.rawString(nil, false)
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number(c)
		return err
	case c == 't':
		return d.literal("rue")
	case c == 'f':
		return d.literal("alse")
	case c == 'n':
		return d.literal("ull")
	}
	return fmt.Errorf("%w: invalid character %q looking for beginning of value", d.parsing(), c)
}

// rawString reads string content after its opening quote up to the
// closing one, validating escapes; with keep it appends the content,
// escapes as written, to dst. plain reports content that is printable
// ASCII without escapes, which needs no unquoting.
func (d *decoder) rawString(dst []byte, keep bool) (_ []byte, plain bool, _ error) {
	plain = true
	for {
		buf, err := d.window()
		if err != nil {
			return dst, false, d.fail(err)
		}
		i := 0
		for i < len(buf) && strClass[buf[i]] != strStop {
			if strClass[buf[i]] == strHigh {
				plain = false
			}
			i++
		}
		if keep {
			dst = append(dst, buf[:i]...)
		}
		if i == len(buf) {
			d.discard(i)
			continue
		}
		c := buf[i]
		d.discard(i + 1)
		switch {
		case c == '"':
			return dst, plain, nil
		case c == '\\':
			plain = false
			var esc []byte
			if esc, err = d.escape(); err != nil {
				return dst, false, err
			}
			if keep {
				dst = append(dst, esc...)
			}
		default:
			return dst, false, fmt.Errorf("%w: invalid character %q in string literal", d.parsing(), c)
		}
	}
}

// escape reads and validates an escape after its backslash, returning
// it as written (backslash included).
func (d *decoder) escape() ([]byte, error) {
	var esc [6]byte
	esc[0] = '\\'
	c, err := d.readByte()
	if err != nil {
		return nil, err
	}
	esc[1] = c
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return esc[:2], nil
	case 'u':
		for i := 2; i < 6; i++ {
			if esc[i], err = d.readByte(); err != nil {
				return nil, err
			}
			if hexValue(esc[i]) < 0 {
				return nil, fmt.Errorf("%w: invalid character %q in \\u hexadecimal character escape", d.parsing(), esc[i])
			}
		}
		return esc[:], nil
	}
	return nil, fmt.Errorf("%w: invalid character %q in string escape code", d.parsing(), c)
}

func hexValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexValue(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

// unescapes maps a one-character escape to its byte.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquote decodes validated string content the way encoding/json does:
// a surrogate pair escape becomes one rune, a lone surrogate escape and
// every byte of invalid UTF-8 become U+FFFD.
func unquote(s []byte) string {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\' && s[r+1] == 'u':
			rr := getu4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
					r += 6
					b = utf8.AppendRune(b, dec)
					break
				}
				rr = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			b = append(b, unescapes[s[r+1]])
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return string(b)
}

// key reads an object key after its opening quote, unquoted.
func (d *decoder) key() ([]byte, error) {
	raw, plain, err := d.rawString(d.tok[:0], true)
	d.tok = raw
	if err != nil || plain {
		return raw, err
	}
	return []byte(unquote(raw)), nil
}

// fieldName returns the name in names that key selects, or "": an
// exact match first, else a case-insensitive one under Unicode simple
// folding, as encoding/json matches struct fields.
func fieldName(key []byte, names ...string) string {
	if i := fieldIndex(key, names); i >= 0 {
		return names[i]
	}
	return ""
}

// fieldIndex is fieldName returning the index into names, or -1.
func fieldIndex(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(string(key), n) {
			return i
		}
	}
	return -1
}

// number reads a number literal starting with c and checks it against
// the JSON grammar. The literal is valid until the next token.
func (d *decoder) number(c byte) ([]byte, error) {
	b := append(d.tok[:0], c)
	for {
		buf, err := d.window()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		i := 0
		for i < len(buf) && isNumberByte(buf[i]) {
			i++
		}
		b = append(b, buf[:i]...)
		d.discard(i)
		if i < len(buf) {
			break
		}
	}
	d.tok = b
	if !validNumber(b) {
		return nil, fmt.Errorf("%w: invalid number literal %q", d.parsing(), b)
	}
	return b, nil
}

// validNumber reports whether s is a JSON number.
func validNumber(s []byte) bool {
	digits := func() {
		for len(s) > 0 && '0' <= s[0] && s[0] <= '9' {
			s = s[1:]
		}
	}
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	switch {
	case len(s) == 0:
		return false
	case s[0] == '0':
		s = s[1:]
	case '1' <= s[0] && s[0] <= '9':
		digits()
	default:
		return false
	}
	if len(s) >= 2 && s[0] == '.' && '0' <= s[1] && s[1] <= '9' {
		s = s[2:]
		digits()
	}
	if len(s) >= 2 && (s[0] == 'e' || s[0] == 'E') {
		s = s[1:]
		if s[0] == '+' || s[0] == '-' {
			s = s[1:]
		}
		n := len(s)
		digits()
		if len(s) == n {
			return false
		}
	}
	return len(s) == 0
}

// decodeFloat decodes a number or null (which leaves *p as it is).
func decodeFloat(d *decoder, c byte, p *float64) error {
	switch {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number(c)
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return fmt.Errorf("%w: cannot decode number %s into float64: %w", d.parsing(), lit, err)
		}
		*p = f
		return nil
	case c == 'n':
		return d.literal("ull")
	}
	return d.mismatch(c, "float64")
}

// decodeUint8 decodes a number or null into one byte of a byte field
// written as a JSON array.
func decodeUint8(d *decoder, c byte, p *byte) error {
	switch {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number(c)
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(string(lit), 10, 8)
		if err != nil {
			return fmt.Errorf("%w: cannot decode number %s into uint8: %w", d.parsing(), lit, err)
		}
		*p = byte(n)
		return nil
	case c == 'n':
		return d.literal("ull")
	}
	return d.mismatch(c, "uint8")
}

// decodeString decodes a string or null (which leaves *p as it is).
func decodeString(d *decoder, c byte, p *string) error {
	switch c {
	case '"':
		raw, plain, err := d.rawString(d.tok[:0], true)
		d.tok = raw
		if err != nil {
			return err
		}
		if plain {
			*p = string(raw)
		} else {
			*p = unquote(raw)
		}
		return nil
	case 'n':
		return d.literal("ull")
	}
	return d.mismatch(c, "string")
}

// decodeSlice decodes an array or null into *dst the way encoding/json
// does: elements decode over what the slice already holds, up to its
// capacity, the result is truncated to the array's length, an empty
// array gives an empty non-nil slice and null gives nil.
func decodeSlice[T any](d *decoder, c byte, dst *[]T, elem func(d *decoder, c byte, p *T) error) error {
	switch c {
	case '[':
	case 'n':
		if err := d.literal("ull"); err != nil {
			return err
		}
		*dst = nil
		return nil
	default:
		return d.mismatch(c, "array")
	}
	s := *dst
	i := 0
	err := d.array(func(c byte) error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		i++
		return elem(d, c, &s[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// decodeBytes decodes a byte field: a base64 string, or an array of
// numbers or null as for any slice.
func decodeBytes(d *decoder, c byte, p *[]byte) error {
	if c != '"' {
		return decodeSlice(d, c, p, decodeUint8)
	}
	b, err := d.base64String()
	if err != nil {
		return err
	}
	*p = b
	return nil
}

// base64String decodes standard base64 string content after its opening
// quote, straight from the stream, into an exact-size slice. Escapes
// are decoded first and \r and \n skipped, as encoding/json's unquoting
// followed by base64.StdEncoding does; any other non-alphabet character
// fails, since it could only fail there too.
func (d *decoder) base64String() ([]byte, error) {
	d.text, d.padded, d.used = d.text[:0], false, 0
	for {
		buf, err := d.window()
		if err != nil {
			return nil, d.fail(err)
		}
		i := 0
		for i < len(buf) && b64Char[buf[i]] {
			i++
		}
		if err := d.addBase64(buf[:i]); err != nil {
			return nil, err
		}
		if i == len(buf) {
			d.discard(i)
			continue
		}
		c := buf[i]
		d.discard(i + 1)
		switch {
		case c == '"':
			return d.finishBase64()
		case c == '=':
			d.text = append(d.text, c)
			d.padded = true
		case c == '\\':
			esc, err := d.escape()
			if err != nil {
				return nil, err
			}
			r := rune(unescapes[esc[1]])
			if esc[1] == 'u' {
				r = getu4(esc)
			}
			switch {
			case r == '\r' || r == '\n':
			case r == '=':
				d.text = append(d.text, '=')
				d.padded = true
			case r < utf8.RuneSelf && b64Char[r]:
				one := [1]byte{byte(r)}
				if err := d.addBase64(one[:]); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: illegal base64 data in byte field", d.parsing())
			}
		case c < 0x20:
			return nil, fmt.Errorf("%w: invalid character %q in string literal", d.parsing(), c)
		default:
			return nil, fmt.Errorf("%w: illegal base64 data in byte field", d.parsing())
		}
	}
}

// addBase64 takes a run of base64 characters. Until padding is seen it
// decodes every whole batch, straight from the run once the pending
// text is used up, and keeps less than a batch pending; after padding
// it keeps everything for finishBase64, so anything after the padding
// fails as it does in one base64 call.
func (d *decoder) addBase64(run []byte) error {
	if d.padded {
		d.text = append(d.text, run...)
		return nil
	}
	if len(d.text)+len(run) >= b64Batch && len(d.text) > 0 {
		n := b64Batch - len(d.text)
		d.text = append(d.text, run[:n]...)
		run = run[n:]
		if err := d.decodeBatch(d.text); err != nil {
			return err
		}
		d.text = d.text[:0]
	}
	for ; len(run) >= b64Batch; run = run[b64Batch:] {
		if err := d.decodeBatch(run[:b64Batch]); err != nil {
			return err
		}
	}
	d.text = append(d.text, run...)
	return nil
}

// decodeBatch decodes b64Batch characters without padding.
func (d *decoder) decodeBatch(text []byte) error {
	n, err := base64.StdEncoding.Decode(d.batch[:], text)
	if err != nil {
		return fmt.Errorf("%w: %w", d.parsing(), err)
	}
	d.emit(d.batch[:n])
	return nil
}

// finishBase64 decodes the remaining text and returns the field's bytes.
func (d *decoder) finishBase64() ([]byte, error) {
	tail := d.batch[:]
	if n := base64.StdEncoding.DecodedLen(len(d.text)); n > len(tail) {
		tail = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(tail, d.text)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", d.parsing(), err)
	}
	d.emit(tail[:n])
	out := make([]byte, 0, d.used)
	for _, b := range d.out {
		out = append(out, b[:min(len(b), d.used-len(out))]...)
	}
	return out, nil
}

// emit appends decoded bytes to the current byte field.
func (d *decoder) emit(p []byte) {
	for len(p) > 0 {
		if d.used == len(d.out)*outBlockSize {
			d.out = append(d.out, make([]byte, outBlockSize))
		}
		n := copy(d.out[d.used/outBlockSize][d.used%outBlockSize:], p)
		d.used += n
		p = p[n:]
	}
}

// floatObject decodes an object of float64 members, or null (which
// leaves the fields as they are); names[i] selects fields[i].
func (d *decoder) floatObject(c byte, names []string, fields ...*float64) error {
	switch c {
	case '{':
	case 'n':
		return d.literal("ull")
	default:
		return d.mismatch(c, "object")
	}
	return d.object(func(key []byte, c byte) error {
		if i := fieldIndex(key, names); i >= 0 {
			return decodeFloat(d, c, fields[i])
		}
		return d.skip(c)
	})
}

var (
	sampleNames = []string{"t", "x", "y", "z"}
	fieldNames  = []string{"angle_deg", "freq_hz", "level_db"}
)

func decodeSample(d *decoder, c byte, p *SampleJSON) error {
	return d.floatObject(c, sampleNames, &p.T, &p.X, &p.Y, &p.Z)
}

func decodeField(d *decoder, c byte, p *FieldJSON) error {
	return d.floatObject(c, fieldNames, &p.AngleDeg, &p.FreqHz, &p.LevelDB)
}

func decodeSession(d *decoder, c byte, p *[][]byte) error {
	return decodeSlice(d, c, p, decodeBytes)
}

// member decodes one top-level member of a verify request.
func (req *VerifyRequest) member(d *decoder, key []byte, c byte) error {
	switch fieldName(key, "claimed_user", "gyro", "accel", "mag", "sweep_start", "sweep_end",
		"pilot_hz", "capture_wav", "field", "voice_wav") {
	case "claimed_user":
		return decodeString(d, c, &req.ClaimedUser)
	case "gyro":
		return decodeSlice(d, c, &req.Gyro, decodeSample)
	case "accel":
		return decodeSlice(d, c, &req.Accel, decodeSample)
	case "mag":
		return decodeSlice(d, c, &req.Mag, decodeSample)
	case "sweep_start":
		return decodeFloat(d, c, &req.SweepStart)
	case "sweep_end":
		return decodeFloat(d, c, &req.SweepEnd)
	case "pilot_hz":
		return decodeFloat(d, c, &req.PilotHz)
	case "capture_wav":
		return decodeBytes(d, c, &req.CaptureWAV)
	case "field":
		return decodeSlice(d, c, &req.Field, decodeField)
	case "voice_wav":
		return decodeBytes(d, c, &req.VoiceWAV)
	}
	return d.skip(c)
}

// member decodes one top-level member of a voiceprint request.
func (req *VoiceprintRequest) member(d *decoder, key []byte, c byte) error {
	switch fieldName(key, "claimed_user", "voice_wav") {
	case "claimed_user":
		return decodeString(d, c, &req.ClaimedUser)
	case "voice_wav":
		return decodeBytes(d, c, &req.VoiceWAV)
	}
	return d.skip(c)
}

// member decodes one top-level member of an enrollment request.
func (req *EnrollRequest) member(d *decoder, key []byte, c byte) error {
	switch fieldName(key, "user", "sessions") {
	case "user":
		return decodeString(d, c, &req.User)
	case "sessions":
		return decodeSlice(d, c, &req.Sessions, decodeSession)
	}
	return d.skip(c)
}
