// Package gunzip reads gzip streams (RFC 1952) of DEFLATE data (RFC
// 1951) with table-driven Huffman decoding. It accepts, refuses and
// outputs exactly what compress/gzip's Reader does, multistream
// included, and fails with the same errors: gzip.ErrHeader,
// gzip.ErrChecksum, io.ErrUnexpectedEOF, flate.CorruptInputError, or
// the underlying reader's own error. FuzzGunzipMatchesGzip holds it to
// that.
//
// Input is read into a small buffer and fed to a 64-bit bit buffer 8
// bytes at a time; only near the end of the buffer does the decoder
// read one byte at a time, and there it reads exactly as far as
// compress/flate would, so a truncated stream fails at the same symbol.
// Output is inflated a chunk at a time after 32 KiB of history, which
// slides once per chunk; the CRC-32 and size are summed per chunk.
package gunzip

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

const (
	// inSize is the input buffer. Its first lookback bytes keep the
	// end of the last read, so the whole bytes left in the bit buffer
	// at the end of a member or before a stored block can be handed
	// back.
	inSize   = 4 << 10
	lookback = 8

	// histSize is DEFLATE's window: the farthest a match may reach.
	histSize = 32 << 10
	// winSize is the history plus a chunk of output. A chunk stops at
	// the first symbol that reaches winEnd, so the last bytes are slack
	// for that symbol: a match, and the up to 7 bytes its word-wise copy
	// writes past itself.
	winSize  = histSize + 16<<10
	maxMatch = 258
	winEnd   = winSize - maxMatch - 8

	maxLit  = 286 // HLIT + 257 may not exceed it
	maxDist = 30  // nor HDIST + 1 this

	// rootBits indexes the primary decoding table; longer codes go on
	// to one sub-table per 10-bit prefix.
	rootBits = 10
	rootMask = 1<<rootBits - 1
	// tableCap is the capacity a dynamic table starts with; a code
	// whose sub-tables need more grows it.
	tableCap = 1 << rootBits * 3 / 2

	// maxString caps a header's file name and comment, NUL included,
	// as compress/gzip does.
	maxString = 512
)

// Optional gzip header fields.
const (
	flagHdrCrc  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// A table entry packs one decoded symbol. Bits 0-3 hold the code
// length, 0 for a bit pattern no code starts with. Bits 4-7 hold the
// kind. Bits 8-11 hold the number of extra bits that follow the code,
// or for a link the sub-table's index bits. Bits 16-31 hold the value:
// a literal byte, a code-length symbol, a length or distance base, or
// a sub-table's offset. An entry with a length but no kind is a symbol
// that decodes but is invalid: lit/len 286-287 and distance 30-31.
const (
	lenMask  = 0xf
	kLiteral = 1 << 4
	kBase    = 1 << 5
	kEnd     = 1 << 6
	kLink    = 1 << 7
)

// Symbol entries of the three alphabets, without the code length.
var litSyms, distSyms, codeLenSyms = func() (lit [288]uint32, dist [32]uint32, cl [19]uint32) {
	for i := 0; i < 256; i++ {
		lit[i] = uint32(i)<<16 | kLiteral
	}
	lit[256] = kEnd
	length := 3
	for sym := 257; sym < 285; sym++ {
		extra := 0
		if sym >= 265 {
			extra = (sym - 261) / 4
		}
		lit[sym] = uint32(length)<<16 | uint32(extra)<<8 | kBase
		length += 1 << extra
	}
	lit[285] = 258<<16 | kBase
	d := 1
	for sym := 0; sym < maxDist; sym++ {
		extra := 0
		if sym >= 4 {
			extra = (sym - 2) / 2
		}
		dist[sym] = uint32(d)<<16 | uint32(extra)<<8 | kBase
		d += 1 << extra
	}
	for i := range cl {
		cl[i] = uint32(i)<<16 | kLiteral
	}
	return lit, dist, cl
}()

// codeOrder is the order of the code-length code's lengths.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The fixed Huffman codes of block type 1.
var fixedLit, fixedLitMin, fixedDist, fixedDistMin = func() ([]uint32, uint, []uint32, uint) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, litMin, _ := build(nil, lens[:], litSyms[:])
	var dlens [32]uint8
	for i := range dlens {
		dlens[i] = 5
	}
	dist, distMin, _ := build(nil, dlens[:], distSyms[:])
	return lit, litMin, dist, distMin
}()

// build returns the decoding table of the code with the given lengths,
// whose symbols decode to syms, reusing t's storage. Like compress/flate
// it refuses over-subscribed codes and incomplete ones other than a
// single code of length 1; an empty code gives a table of invalid
// entries, which fails only once it is used. min is the shortest code
// length, 0 for an empty code.
func build(t []uint32, lens []uint8, syms []uint32) (table []uint32, min uint, ok bool) {
	var count [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	max := 0
	for n := 1; n < len(count); n++ {
		if count[n] == 0 {
			continue
		}
		if min == 0 {
			min = uint(n)
		}
		max = n
	}
	if cap(t) < 1<<rootBits {
		t = make([]uint32, 1<<rootBits, tableCap)
	}
	t = t[:1<<rootBits]
	clear(t)
	if max == 0 {
		return t, 0, true
	}
	// next[n] is the next canonical code of length n; offs[n] is where
	// the symbols of length n start in sorted.
	var next, offs [16]int
	code, total := 0, 0
	for n := 1; n <= max; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
		offs[n] = total
		total += count[n]
	}
	if code += count[max]; code != 1<<max && !(code == 1 && max == 1) {
		return t, 0, false
	}
	var sorted [288]uint16
	for s, n := range lens {
		if n != 0 {
			sorted[offs[n]] = uint16(s)
			offs[n]++
		}
	}
	// Codes in canonical order have non-decreasing 10-bit prefixes, so
	// each prefix's long codes come together. A prefix's sub-table is
	// sized, as zlib sizes it, by the codes still to place.
	left := count
	prefix, sub, subBits := -1, 0, 0
	for _, s := range sorted[:total] {
		n := int(lens[s])
		rev := int(bits.Reverse16(uint16(next[n]))) >> (16 - n)
		next[n]++
		e := syms[s] | uint32(n)
		if n <= rootBits {
			for i := rev; i < 1<<rootBits; i += 1 << n {
				t[i] = e
			}
			continue
		}
		if p := rev & rootMask; p != prefix {
			prefix = p
			subBits = n - rootBits
			for room := 1 << subBits; subBits+rootBits < max; subBits++ {
				if room -= left[subBits+rootBits]; room <= 0 {
					break
				}
				room <<= 1
			}
			sub = len(t)
			t = append(t, make([]uint32, 1<<subBits)...)
			t[p] = uint32(sub)<<16 | uint32(subBits)<<8 | kLink
		}
		left[n]--
		for i := rev >> rootBits; i < 1<<subBits; i += 1 << (n - rootBits) {
			t[sub+i] = e
		}
	}
	return t, min, true
}

// look returns the entry of the code at the bottom of b.
func look(t []uint32, b uint64) uint32 {
	e := t[b&rootMask]
	if e&kLink != 0 {
		e = t[e>>16+uint32(b>>rootBits)&(1<<(e>>8&0xf)-1)]
	}
	return e
}

// What the next input holds.
const (
	stBlock   = iota // a block header
	stStored         // the rest of a stored block
	stHuffman        // the rest of a Huffman-coded block
	stEnd            // the member's trailer
)

// Reader is an io.Reader of the data in a gzip stream. Peek and
// Discard read the same data in place.
type Reader struct {
	r io.Reader
	// rerr is the error r returned along with its last bytes, due once
	// they are used.
	rerr error

	in     []byte
	ip, ie int   // next unread byte in in and end of the bytes read
	off    int64 // stream offset of in[0]
	doff   int64 // stream offset of the member's DEFLATE data

	b  uint64 // bit buffer, least significant bit first
	nb uint   // bits of b not yet used

	// win holds 32 KiB of history, then the chunk being inflated.
	win    []byte
	rp, wp int // first byte not yet consumed and next byte to write
	// restart starts the window over at the next chunk: a member ended.
	restart bool

	state  int
	final  bool // the current block is the member's last
	stored int  // bytes of the stored block still to copy
	// lt and dt decode the current block; lmin and dmin are how many
	// bits compress/flate holds before looking a code up in them.
	lt, dt     []uint32
	lmin, dmin uint
	// lit and dist hold the dynamic tables, allocated by the first
	// dynamic block.
	lit, dist []uint32
	lens      [maxLit + maxDist]uint8

	crc, size uint32 // of the member's data so far
	err       error
}

// NewReader reads the header of the stream's first member; the error,
// on an empty stream io.EOF, is what gzip.NewReader returns.
func NewReader(r io.Reader) (*Reader, error) {
	z := &Reader{r: r, in: make([]byte, inSize)}
	if err := z.header(); err != nil {
		return nil, err
	}
	z.win = make([]byte, winSize)
	return z, nil
}

// Peek returns the data not yet consumed, inflating the next chunk when
// none is left. Once the stream ends or fails it returns no data and
// the error, io.EOF after the last member; data inflated before an
// error comes first. The slice is valid until the next call.
func (z *Reader) Peek() ([]byte, error) {
	if z.rp == z.wp {
		z.fill()
		if z.rp == z.wp {
			return nil, z.err
		}
	}
	return z.win[z.rp:z.wp], nil
}

// Discard consumes the first n bytes Peek returned.
func (z *Reader) Discard(n int) { z.rp += n }

// Done reports whether the stream has ended or failed: what Peek
// returns now is the last of the data.
func (z *Reader) Done() bool { return z.err != nil }

func (z *Reader) Read(p []byte) (int, error) {
	buf, err := z.Peek()
	n := copy(p, buf)
	z.rp += n
	return n, err
}

// fill inflates until a chunk is done or an error ends the stream.
func (z *Reader) fill() {
	for z.err == nil && z.rp == z.wp {
		if z.restart {
			z.rp, z.wp, z.restart = 0, 0, false
		}
		if z.wp >= winEnd {
			n := copy(z.win, z.win[z.wp-histSize:z.wp])
			z.rp, z.wp = n, n
		}
		start := z.wp
		err := z.inflate()
		z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wp])
		z.size += uint32(z.wp - start)
		if err == nil && z.state == stEnd {
			err = z.endMember()
		}
		z.err = err
	}
}

// inflate decodes blocks until the chunk is full or the member's last
// block ends.
func (z *Reader) inflate() error {
	for z.wp < winEnd {
		var err error
		switch z.state {
		case stBlock:
			err = z.block()
		case stStored:
			err = z.copyStored()
		case stHuffman:
			err = z.huffman()
		default:
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// block reads a block header.
func (z *Reader) block() error {
	if err := z.need(3); err != nil {
		return err
	}
	z.final = z.b&1 == 1
	typ := z.b >> 1 & 3
	z.b >>= 3
	z.nb -= 3
	switch typ {
	case 0:
		z.align()
		var hdr [4]byte
		if _, err := z.readFull(hdr[:]); err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(hdr[:2])
		if n != ^binary.LittleEndian.Uint16(hdr[2:]) {
			return z.corrupt()
		}
		z.stored, z.state = int(n), stStored
		if n == 0 {
			z.endBlock()
		}
	case 1:
		z.lt, z.lmin, z.dt, z.dmin = fixedLit, fixedLitMin, fixedDist, fixedDistMin
		z.state = stHuffman
	case 2:
		if err := z.dynamic(); err != nil {
			return err
		}
		z.state = stHuffman
	default:
		return z.corrupt()
	}
	return nil
}

func (z *Reader) endBlock() {
	z.state = stBlock
	if z.final {
		z.state = stEnd
	}
}

// copyStored copies a stored block's bytes, those that arrived before
// a truncation included.
func (z *Reader) copyStored() error {
	for z.stored > 0 && z.wp < winEnd {
		if z.ip == z.ie {
			if err := z.more(); err != nil {
				return noEOF(err)
			}
		}
		n := copy(z.win[z.wp:min(z.wp+z.stored, winEnd)], z.in[z.ip:z.ie])
		z.ip += n
		z.wp += n
		z.stored -= n
	}
	if z.stored == 0 {
		z.endBlock()
	}
	return nil
}

// dynamic reads a dynamic block's code lengths and builds its tables,
// with compress/flate's checks in compress/flate's order.
func (z *Reader) dynamic() error {
	if err := z.need(5 + 5 + 4); err != nil {
		return err
	}
	nlit := int(z.b&0x1f) + 257
	ndist := int(z.b>>5&0x1f) + 1
	nclen := int(z.b>>10&0xf) + 4
	if nlit > maxLit || ndist > maxDist {
		return z.corrupt()
	}
	z.b >>= 5 + 5 + 4
	z.nb -= 5 + 5 + 4
	var cl [len(codeOrder)]uint8
	for _, sym := range codeOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		cl[sym] = uint8(z.b & 7)
		z.b >>= 3
		z.nb -= 3
	}
	ct, cmin, ok := build(z.dist, cl[:], codeLenSyms[:])
	z.dist = ct
	if !ok {
		return z.corrupt()
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.sym(ct, cmin)
		if err != nil {
			return err
		}
		x := uint8(e >> 16)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		rep, nb, v := 11, uint(7), uint8(0)
		switch x {
		case 16:
			if i == 0 {
				return z.corrupt()
			}
			rep, nb, v = 3, 2, lens[i-1]
		case 17:
			rep, nb = 3, 3
		}
		if err := z.need(nb); err != nil {
			return err
		}
		rep += int(z.b & (1<<nb - 1))
		z.b >>= nb
		z.nb -= nb
		if i+rep > len(lens) {
			return z.corrupt()
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	var dok bool
	z.lit, z.lmin, ok = build(z.lit, lens[:nlit], litSyms[:nlit])
	z.dist, z.dmin, dok = build(z.dist, lens[nlit:], distSyms[:ndist])
	if !ok || !dok {
		return z.corrupt()
	}
	// Every block ends with its end-of-block code, so compress/flate
	// holds at least that many bits before a lookup.
	z.lmin = max(z.lmin, uint(lens[256]))
	z.lt, z.dt = z.lit, z.dist
	return nil
}

// huffman decodes the current block until it ends or the chunk is full.
// The hot loop keeps the bit buffer and output index in locals and
// refills 8 bytes at a time, which covers a whole length and distance
// or three literals; near the end of the input it hands each symbol to
// slowSym.
func (z *Reader) huffman() error {
	lt, dt := z.lt, z.dt
	lroot := (*[1 << rootBits]uint32)(lt)
	droot := (*[1 << rootBits]uint32)(dt)
	win := z.win
	b, nb, ip, wp := z.b, z.nb, z.ip, z.wp
	in := z.in[:z.ie]
	for wp < winEnd {
		if ip+8 > len(in) {
			z.b, z.nb, z.ip, z.wp = b, nb, ip, wp
			if end, err := z.slowSym(); end || err != nil {
				return err
			}
			b, nb, ip, wp = z.b, z.nb, z.ip, z.wp
			in = z.in[:z.ie]
			continue
		}
		// Bits past nb are the next input's; later loads OR the same
		// bits back in.
		b |= binary.LittleEndian.Uint64(in[ip:]) << nb
		ip += int(63-nb) >> 3
		nb |= 56

		e := lroot[b&rootMask]
		if e&kLink != 0 {
			e = lt[e>>16+uint32(b>>rootBits)&(1<<(e>>8&0xf)-1)]
		}
		if e&kLiteral != 0 {
			for lits := 0; ; {
				n := uint(e & lenMask)
				b >>= n
				nb -= n
				win[wp] = byte(e >> 16)
				wp++
				if lits++; lits == 3 {
					break
				}
				e = lroot[b&rootMask]
				if e&kLink != 0 {
					e = lt[e>>16+uint32(b>>rootBits)&(1<<(e>>8&0xf)-1)]
				}
				if e&kLiteral == 0 {
					break
				}
			}
			continue
		}
		if e&kBase == 0 {
			z.b, z.nb, z.ip, z.wp = b, nb, ip, wp
			if e&kEnd == 0 {
				return z.corrupt()
			}
			n := uint(e & lenMask)
			z.b >>= n
			z.nb -= n
			z.endBlock()
			return nil
		}
		n := uint(e & lenMask)
		b >>= n
		x := uint(e >> 8 & 0xf)
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= n + x

		e = droot[b&rootMask]
		if e&kLink != 0 {
			e = dt[e>>16+uint32(b>>rootBits)&(1<<(e>>8&0xf)-1)]
		}
		if e&kBase == 0 {
			z.b, z.nb, z.ip, z.wp = b, nb, ip, wp
			return z.corrupt()
		}
		n = uint(e & lenMask)
		b >>= n
		x = uint(e >> 8 & 0xf)
		dist := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= n + x
		if dist > wp {
			z.b, z.nb, z.ip, z.wp = b, nb, ip, wp
			return z.corrupt()
		}
		copyMatch(win, wp, dist, length)
		wp += length
	}
	z.b, z.nb, z.ip, z.wp = b, nb, ip, wp
	return nil
}

// copyMatch writes length bytes at wp copied from dist bytes back. From
// 8 bytes back it copies whole words, up to 7 bytes past the match: the
// window's slack holds them, and later output overwrites them. A match
// longer than its distance repeats the distance's bytes; copying from a
// fixed start doubles each copy.
func copyMatch(win []byte, wp, dist, length int) {
	src := wp - dist
	if dist >= 8 {
		for i := 0; i < length; i += 8 {
			binary.LittleEndian.PutUint64(win[wp+i:], binary.LittleEndian.Uint64(win[src+i:]))
		}
		return
	}
	for end := wp + length; wp < end; {
		wp += copy(win[wp:end], win[src:wp])
	}
}

// slowSym decodes one symbol of the current block, reading input a byte
// at a time exactly as far as compress/flate would, so a truncated
// stream fails where flate's does. end reports the end of the block.
func (z *Reader) slowSym() (end bool, err error) {
	e, err := z.sym(z.lt, z.lmin)
	switch {
	case err != nil:
		return false, err
	case e&kLiteral != 0:
		z.win[z.wp] = byte(e >> 16)
		z.wp++
		return false, nil
	case e&kEnd != 0:
		z.endBlock()
		return true, nil
	case e&kBase == 0:
		return false, z.corrupt()
	}
	length, err := z.extra(e)
	if err != nil {
		return false, err
	}
	if e, err = z.sym(z.dt, z.dmin); err != nil {
		return false, err
	}
	if e&kBase == 0 {
		return false, z.corrupt()
	}
	dist, err := z.extra(e)
	if err != nil {
		return false, err
	}
	if dist > z.wp {
		return false, z.corrupt()
	}
	copyMatch(z.win, z.wp, dist, length)
	z.wp += length
	return false, nil
}

// extra reads the extra bits after a length or distance code and
// returns the value.
func (z *Reader) extra(e uint32) (int, error) {
	x := uint(e >> 8 & 0xf)
	if err := z.need(x); err != nil {
		return 0, err
	}
	v := int(e>>16) + int(z.b&(1<<x-1))
	z.b >>= x
	z.nb -= x
	return v, nil
}

// sym decodes one code as compress/flate's huffSym does: it holds min
// bits, then as many as the code looked up is long, before taking it.
// Bits past nb do not change the outcome: a code no longer than nb is
// found whatever follows it.
func (z *Reader) sym(t []uint32, min uint) (uint32, error) {
	for n := min; ; {
		if err := z.need(n); err != nil {
			return 0, err
		}
		e := look(t, z.b)
		if n = uint(e & lenMask); n <= z.nb {
			if n == 0 {
				return 0, z.corrupt()
			}
			z.b >>= n
			z.nb -= n
			return e, nil
		}
	}
}

// need reads input a byte at a time until the bit buffer holds n bits.
func (z *Reader) need(n uint) error {
	for z.nb < n {
		if z.ip == z.ie {
			if err := z.more(); err != nil {
				return noEOF(err)
			}
		}
		z.b |= uint64(z.in[z.ip]) << z.nb
		z.ip++
		z.nb += 8
	}
	return nil
}

// align drops the bits left of a partly used byte and hands the whole
// bytes in the bit buffer back to the input.
func (z *Reader) align() {
	z.ip -= int(z.nb >> 3)
	z.b, z.nb = 0, 0
}

// more reads input once every buffered byte is used, keeping the last
// lookback bytes in front. It fails, with the underlying reader's
// error, only when no byte came.
func (z *Reader) more() error {
	if z.rerr != nil {
		return z.rerr
	}
	keep := min(z.ie, lookback)
	copy(z.in, z.in[z.ie-keep:z.ie])
	z.off += int64(z.ie - keep)
	z.ip, z.ie = keep, keep
	// An io.Reader may return no bytes and no error; bufio.Reader gives
	// up after 100 such reads.
	for tries := 0; z.ie == keep; tries++ {
		if tries == 100 {
			return io.ErrNoProgress
		}
		n, err := z.r.Read(z.in[keep:])
		z.ie += n
		if err != nil {
			z.rerr = err
			if n == 0 {
				return err
			}
		}
	}
	return nil
}

// readFull reads len(p) bytes of input with io.ReadFull's errors. The
// bit buffer must be empty.
func (z *Reader) readFull(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if z.ip == z.ie {
			if err := z.more(); err != nil {
				if err == io.EOF && n > 0 {
					err = io.ErrUnexpectedEOF
				}
				return n, err
			}
		}
		k := copy(p[n:], z.in[z.ip:z.ie])
		z.ip += k
		n += k
	}
	return n, nil
}

// header reads a member header, skipping its optional fields and
// checking its CRC-16 when it has one, with compress/gzip's errors: a
// clean end of the stream before it is io.EOF.
func (z *Reader) header() error {
	var hdr [10]byte
	if _, err := z.readFull(hdr[:]); err != nil {
		return err
	}
	if hdr[0] != 0x1f || hdr[1] != 0x8b || hdr[2] != 8 {
		return gzip.ErrHeader
	}
	flg := hdr[3]
	crc := crc32.ChecksumIEEE(hdr[:])
	if flg&flagExtra != 0 {
		var xlen [2]byte
		if _, err := z.readFull(xlen[:]); err != nil {
			return noEOF(err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, xlen[:])
		for n := int(binary.LittleEndian.Uint16(xlen[:])); n > 0; {
			if z.ip == z.ie {
				if err := z.more(); err != nil {
					return noEOF(err)
				}
			}
			k := min(n, z.ie-z.ip)
			crc = crc32.Update(crc, crc32.IEEETable, z.in[z.ip:z.ip+k])
			z.ip += k
			n -= k
		}
	}
	for _, f := range [...]byte{flagName, flagComment} {
		if flg&f != 0 {
			var err error
			if crc, err = z.skipString(crc); err != nil {
				return err
			}
		}
	}
	if flg&flagHdrCrc != 0 {
		var sum [2]byte
		if _, err := z.readFull(sum[:]); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(sum[:]) != uint16(crc) {
			return gzip.ErrHeader
		}
	}
	z.state, z.crc, z.size = stBlock, 0, 0
	z.doff = z.off + int64(z.ip)
	return nil
}

// skipString skips a NUL-terminated header field, adding it to crc.
func (z *Reader) skipString(crc uint32) (uint32, error) {
	s := z.ip
	for i := 0; ; i++ {
		if i >= maxString {
			return crc, gzip.ErrHeader
		}
		if z.ip == z.ie {
			crc = crc32.Update(crc, crc32.IEEETable, z.in[s:z.ip])
			if err := z.more(); err != nil {
				return crc, noEOF(err)
			}
			s = z.ip
		}
		z.ip++
		if z.in[z.ip-1] == 0 {
			return crc32.Update(crc, crc32.IEEETable, z.in[s:z.ip]), nil
		}
	}
}

// endMember checks the trailer's CRC-32 and size, then reads the next
// member's header.
func (z *Reader) endMember() error {
	z.align()
	var tr [8]byte
	if _, err := z.readFull(tr[:]); err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(tr[:4]) != z.crc || binary.LittleEndian.Uint32(tr[4:]) != z.size {
		return gzip.ErrChecksum
	}
	if err := z.header(); err != nil {
		return err
	}
	z.restart = true
	return nil
}

// corrupt reports corrupt DEFLATE data at the member's input offset.
func (z *Reader) corrupt() error {
	return flate.CorruptInputError(z.off + int64(z.ip) - int64(z.nb>>3) - z.doff)
}

// noEOF returns io.ErrUnexpectedEOF for io.EOF and any other error as is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
