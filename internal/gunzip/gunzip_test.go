package gunzip_test

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/gunzip"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

// plainReader hides every method but Read, so neither reader can take
// a bytes.Reader's shortcuts.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// oneByteReader returns one byte per Read, crossing every refill
// boundary the reader has.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return o.r.Read(b[:1])
}

func gunzipAll(r io.Reader) ([]byte, error) {
	z, err := gunzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(z)
}

func gzipAll(r io.Reader) ([]byte, error) {
	z, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(z)
}

// errClass names the sentinel an error is, or its text.
func errClass(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "io.EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "io.ErrUnexpectedEOF"
	case errors.Is(err, gzip.ErrChecksum):
		return "gzip.ErrChecksum"
	case errors.Is(err, gzip.ErrHeader):
		return "gzip.ErrHeader"
	case errors.As(err, &corrupt):
		return "flate.CorruptInputError"
	}
	return err.Error()
}

// sameAsGzip reads body with compress/gzip and with gunzip, from a
// plain reader and from one that returns a byte per Read: each must
// give the same data and the same class of error. It returns gzip's
// error.
func sameAsGzip(t *testing.T, body []byte) error {
	t.Helper()
	want, werr := gzipAll(bytes.NewReader(body))
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"plain", plainReader{bytes.NewReader(body)}},
		{"one byte per read", oneByteReader{bytes.NewReader(body)}},
	} {
		got, err := gunzipAll(src.r)
		if errClass(err) != errClass(werr) {
			t.Fatalf("%s: err = %v, compress/gzip's = %v", src.name, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes, compress/gzip read %d; first difference at %d",
				src.name, len(got), len(want), firstDiff(got, want))
		}
	}
	return werr
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func gzipLevel(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genuineBody is the seed-1 genuine session as its client uploads it.
func genuineBody(t testing.TB) []byte {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(1)))
	s, err := attack.Genuine(victim, attack.Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := protocol.FromSession(s, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	body, err := protocol.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sampleText mixes runs, repeats at every distance class and noise, so
// every level uses literals, matches and, at level 9, long codes. It
// is longer than a window of output, so its members cross chunks.
func sampleText() []byte {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; b.Len() < 80<<10; i++ {
		switch i % 4 {
		case 0:
			b.WriteString(`{"t":0.0125,"x":-1.5e-3,"y":2,"z":-0},`)
		case 1:
			b.Write(bytes.Repeat([]byte{byte('a' + i%26)}, i%300))
		case 2:
			for j := 0; j < 64; j++ {
				b.WriteByte(byte(rng.Intn(256)))
			}
		case 3:
			if n := b.Len(); n > 1000 {
				b.Write(b.Bytes()[n-1000 : n-1000+rng.Intn(500)])
			}
		}
	}
	return b.Bytes()
}

// fuzzSeeds holds a member at every level, an empty member, two
// members back to back, stored and Huffman members longer than a chunk
// and the seed-1 genuine upload.
func fuzzSeeds(t testing.TB) [][]byte {
	text := sampleText()
	var seeds [][]byte
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		seeds = append(seeds, gzipLevel(t, text[:4<<10], level))
	}
	empty := gzipLevel(t, nil, gzip.DefaultCompression)
	two := append(gzipLevel(t, []byte("first member,"), 1), gzipLevel(t, []byte(" second member"), 9)...)
	return append(seeds, empty, two, gzipLevel(t, text, gzip.NoCompression),
		gzipLevel(t, text, gzip.BestCompression), genuineBody(t))
}

// FuzzGunzipMatchesGzip is the differential check against compress/gzip:
// the same data, and the same class of error, on every input.
func FuzzGunzipMatchesGzip(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsGzip(t, body)
	})
}

// TestMutatedBodies flips bits in and truncates real bodies, so plain
// go test reaches the refusal paths the fuzzer's seeds do not.
func TestMutatedBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	text := sampleText()
	var bodies [][]byte
	for level := gzip.HuffmanOnly; level <= gzip.BestCompression; level++ {
		bodies = append(bodies, gzipLevel(t, text[:8<<10], level))
	}
	for i := 0; i < 200; i++ {
		body := bytes.Clone(bodies[i%len(bodies)])
		for flips := rng.Intn(3); flips >= 0; flips-- {
			body[rng.Intn(len(body))] ^= 1 << rng.Intn(8)
		}
		if i%3 == 0 {
			body = body[:rng.Intn(len(body))]
		}
		sameAsGzip(t, body)
	}
	for _, body := range bodies {
		for cut := 0; cut < len(body); cut += 1 + cut/8 {
			sameAsGzip(t, body[:cut])
		}
	}
}

// bitWriter writes DEFLATE's bit stream: fields least significant bit
// first, Huffman codes most significant bit first.
type bitWriter struct {
	out []byte
	b   uint64
	nb  uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.b |= v << w.nb
	for w.nb += n; w.nb >= 8; w.nb -= 8 {
		w.out = append(w.out, byte(w.b))
		w.b >>= 8
	}
}

func (w *bitWriter) code(c uint16, n uint) {
	w.bits(uint64(bits.Reverse16(c)>>(16-n)), n)
}

// bytes pads the last byte with zeros.
func (w *bitWriter) bytes() []byte {
	if w.nb > 0 {
		w.bits(0, 8-w.nb)
	}
	return w.out
}

// stored writes a stored block holding data, or with nlen given, a
// stored header whose NLEN is nlen.
func (w *bitWriter) stored(final bool, data []byte, nlen ...uint16) {
	w.block(final, 0)
	w.bytes()
	n := uint16(len(data))
	nn := ^n
	if len(nlen) > 0 {
		nn = nlen[0]
	}
	w.out = binary.LittleEndian.AppendUint16(w.out, n)
	w.out = binary.LittleEndian.AppendUint16(w.out, nn)
	w.out = append(w.out, data...)
}

func (w *bitWriter) block(final bool, typ uint64) {
	f := uint64(0)
	if final {
		f = 1
	}
	w.bits(f|typ<<1, 3)
}

// fixed writes symbol sym of the fixed lit/len code.
func (w *bitWriter) fixed(sym int) {
	switch {
	case sym < 144:
		w.code(uint16(0x30+sym), 8)
	case sym < 256:
		w.code(uint16(0x190+sym-144), 9)
	case sym < 280:
		w.code(uint16(sym-256), 7)
	default:
		w.code(uint16(0xc0+sym-280), 8)
	}
}

// codeOrder is the order of the code-length code's lengths.
var codeOrder = []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamic writes a dynamic block header with the given lengths, each
// sent as a 4-bit code: the code-length code gives 0-15 length 4.
func (w *bitWriter) dynamic(final bool, lit, dist []uint8) {
	w.block(final, 2)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	for _, s := range codeOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, n := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint16(n), 4)
	}
}

// canonical returns the canonical Huffman codes of lens.
func canonical(lens []uint8) []uint16 {
	var count, next [16]uint16
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	code := uint16(0)
	for n := 1; n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint16, len(lens))
	for s, n := range lens {
		if n != 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// sym writes symbol s of the code with lengths lens.
func (w *bitWriter) sym(lens []uint8, s int) {
	w.code(canonical(lens)[s], uint(lens[s]))
}

// litLens gives each listed symbol its length in a lit/len code of 257
// symbols or more.
func litLens(n int, lens map[int]uint8) []uint8 {
	out := make([]uint8, n)
	for s, l := range lens {
		out[s] = l
	}
	return out
}

// member frames raw DEFLATE data as a gzip member whose trailer matches
// data.
func member(deflate, data []byte) []byte {
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	out = append(out, deflate...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(data))
	return binary.LittleEndian.AppendUint32(out, uint32(len(data)))
}

// TestDeflateEdgeCases runs hand-built DEFLATE streams past
// compress/flate, which must give the listed verdict, and then past
// gunzip and compress/gzip, which must agree.
func TestDeflateEdgeCases(t *testing.T) {
	history := bytes.Repeat([]byte("0123456789abcdef"), 32768/16)
	abc := litLens(258, map[int]uint8{'a': 1, 256: 2, 257: 2})
	cases := []struct {
		name  string
		build func(w *bitWriter)
		want  string // errClass of compress/flate's verdict
	}{
		{"distance exactly 32768", func(w *bitWriter) {
			w.stored(false, history)
			w.block(true, 1)
			w.fixed(257) // length 3
			w.code(29, 5)
			w.bits(32768-24577, 13)
			w.fixed(256)
		}, "nil"},
		{"distance 1, length 258", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed('x')
			w.fixed(285)
			w.code(0, 5)
			w.fixed(256)
		}, "nil"},
		{"empty stored block", func(w *bitWriter) { w.stored(true, nil) }, "nil"},
		{"empty final fixed block", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed(256)
		}, "nil"},
		{"degenerate single-code distance tree", func(w *bitWriter) {
			dist := []uint8{1}
			w.dynamic(true, abc, dist)
			w.sym(abc, 'a')
			w.sym(abc, 257) // length 3
			w.sym(dist, 0)  // distance 1
			w.sym(abc, 256)
		}, "nil"},
		{"degenerate distance tree, unused code", func(w *bitWriter) {
			dist := []uint8{1}
			w.dynamic(true, abc, dist)
			w.sym(abc, 'a')
			w.sym(abc, 257)
			w.bits(1, 1) // the code the tree lacks
		}, "flate.CorruptInputError"},
		{"empty distance tree, unused", func(w *bitWriter) {
			w.dynamic(true, abc, []uint8{0})
			w.sym(abc, 'a')
			w.sym(abc, 256)
		}, "nil"},
		{"empty distance tree, used", func(w *bitWriter) {
			w.dynamic(true, abc, []uint8{0})
			w.sym(abc, 'a')
			w.sym(abc, 257)
		}, "flate.CorruptInputError"},
		{"distance one past the history", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed('x')
			w.fixed(257)
			w.code(1, 5) // distance 2
			w.fixed(256)
		}, "flate.CorruptInputError"},
		{"over-subscribed lit/len code", func(w *bitWriter) {
			w.dynamic(true, litLens(258, map[int]uint8{'a': 1, 256: 1, 257: 1}), []uint8{1})
		}, "flate.CorruptInputError"},
		{"incomplete lit/len code", func(w *bitWriter) {
			w.dynamic(true, litLens(258, map[int]uint8{'a': 2, 256: 2, 257: 2}), []uint8{1})
		}, "flate.CorruptInputError"},
		{"HLIT giving 287 codes", func(w *bitWriter) {
			w.block(true, 2)
			w.bits(287-257, 5)
			w.bits(0, 5)
			w.bits(0, 4)
		}, "flate.CorruptInputError"},
		{"HDIST giving 31 codes", func(w *bitWriter) {
			w.block(true, 2)
			w.bits(0, 5)
			w.bits(31-1, 5)
			w.bits(0, 4)
		}, "flate.CorruptInputError"},
		{"repeat code 16 first", func(w *bitWriter) {
			w.block(true, 2)
			w.bits(0, 5)
			w.bits(0, 5)
			w.bits(0, 4) // four code-length lengths: 16, 17, 18, 0
			w.bits(1, 3)
			w.bits(0, 3)
			w.bits(0, 3)
			w.bits(1, 3)
			w.code(1, 1) // 16 (0 has code 0, 16 code 1)
			w.bits(0, 2)
		}, "flate.CorruptInputError"},
		{"repeat past the end", func(w *bitWriter) {
			w.block(true, 2)
			w.bits(0, 5)
			w.bits(0, 5)
			w.bits(0, 4)
			w.bits(0, 3)
			w.bits(0, 3)
			w.bits(1, 3) // 18
			w.bits(1, 3) // 0
			for i := 0; i < 2; i++ {
				w.code(1, 1) // 18: 138 zeros, twice over 258 lengths
				w.bits(127, 7)
			}
		}, "flate.CorruptInputError"},
		{"lit/len 286 in a fixed block", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed(286)
		}, "flate.CorruptInputError"},
		{"lit/len 287 in a fixed block", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed(287)
		}, "flate.CorruptInputError"},
		{"distance code 30", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed('x')
			w.fixed(257)
			w.code(30, 5)
		}, "flate.CorruptInputError"},
		{"distance code 31", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed('x')
			w.fixed(257)
			w.code(31, 5)
		}, "flate.CorruptInputError"},
		{"block type 3", func(w *bitWriter) { w.block(true, 3) }, "flate.CorruptInputError"},
		{"stored LEN is not ^NLEN", func(w *bitWriter) {
			w.stored(true, []byte("abc"), 0)
		}, "flate.CorruptInputError"},
		{"truncated in a fixed block", func(w *bitWriter) {
			w.block(true, 1)
			w.fixed('x')
		}, "io.ErrUnexpectedEOF"},
		{"truncated stored block", func(w *bitWriter) {
			w.stored(true, []byte("abcdef"))
			w.out = w.out[:len(w.out)-2]
		}, "io.ErrUnexpectedEOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w bitWriter
			tc.build(&w)
			raw := w.bytes()
			data, err := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
			if got := errClass(err); got != tc.want {
				t.Fatalf("compress/flate: %s (%v), want %s", got, err, tc.want)
			}
			if gerr := sameAsGzip(t, member(raw, data)); (gerr == nil) != (err == nil) {
				t.Fatalf("compress/gzip err = %v, compress/flate's = %v", gerr, err)
			}
		})
	}
}

func TestPeekDiscardReadInPlace(t *testing.T) {
	text := sampleText()
	z, err := gunzip.NewReader(bytes.NewReader(gzipLevel(t, text, gzip.BestSpeed)))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		buf, err := z.Peek()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n := min(len(buf), 1000)
		got = append(got, buf[:n]...)
		z.Discard(n)
	}
	if !bytes.Equal(got, text) {
		t.Fatalf("read %d bytes in place, first difference at %d", len(got), firstDiff(got, text))
	}
}

// TestReaderErrorPassesThrough checks an error of the underlying
// reader comes back as is, after the data before it.
func TestReaderErrorPassesThrough(t *testing.T) {
	body := gzipLevel(t, []byte(strings.Repeat("payload ", 4096)), gzip.NoCompression)
	errRead := errors.New("read failed")
	r := io.MultiReader(bytes.NewReader(body[:len(body)/2]), errReader{errRead})
	got, err := gunzipAll(r)
	if !errors.Is(err, errRead) {
		t.Fatalf("err = %v, want the reader's", err)
	}
	want, _ := gzipAll(io.MultiReader(bytes.NewReader(body[:len(body)/2]), errReader{errRead}))
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes before the error, compress/gzip read %d", len(got), len(want))
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func BenchmarkGunzip(b *testing.B) {
	body := genuineBody(b)
	for _, impl := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"gunzip", func(r io.Reader) error {
			z, err := gunzip.NewReader(r)
			if err != nil {
				return err
			}
			return drain(z)
		}},
		{"compress/gzip", func(r io.Reader) error {
			z, err := gzip.NewReader(r)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, z)
			return err
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := impl.read(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// drain reads z to its end in place.
func drain(z *gunzip.Reader) error {
	for {
		buf, err := z.Peek()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		z.Discard(len(buf))
	}
}
