package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestWAVRoundTrip(t *testing.T) {
	orig := sine(440, 16000, 0.05, 0.8)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, orig); err != nil {
		t.Fatalf("WriteWAV: %v", err)
	}
	if buf.Len() != 44+2*orig.Len() {
		t.Errorf("encoded size = %d, want %d", buf.Len(), 44+2*orig.Len())
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatalf("ReadWAV: %v", err)
	}
	if got.Rate != orig.Rate {
		t.Errorf("rate = %v, want %v", got.Rate, orig.Rate)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), orig.Len())
	}
	for i := range got.Samples {
		if math.Abs(got.Samples[i]-orig.Samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, got.Samples[i], orig.Samples[i])
		}
	}
}

func TestWAVClipping(t *testing.T) {
	s := &Signal{Samples: []float64{2.5, -3, 0}, Rate: 8000}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Samples[0]-1) > 1e-3 || math.Abs(got.Samples[1]+1) > 1e-3 {
		t.Errorf("clipped samples = %v", got.Samples)
	}
}

func TestWAVInvalidRate(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, &Signal{Rate: 0}); err == nil {
		t.Error("expected error for zero rate")
	}
}

func TestReadWAVMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     []byte("RIFF"),
		"bad magic": []byte("XXXX0000WAVE"),
		"no chunks": []byte("RIFF\x00\x00\x00\x00WAVE"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadWAV(bytes.NewReader(data)); !errors.Is(err, ErrBadWAV) {
				t.Errorf("err = %v, want ErrBadWAV", err)
			}
		})
	}
}

func TestReadWAVSkipsUnknownChunks(t *testing.T) {
	orig := sine(100, 8000, 0.01, 0.5)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Splice a LIST chunk between fmt and data.
	var spliced bytes.Buffer
	spliced.Write(raw[:36])
	spliced.WriteString("LIST")
	spliced.Write([]byte{4, 0, 0, 0})
	spliced.WriteString("INFO")
	spliced.Write(raw[36:])
	got, err := ReadWAV(&spliced)
	if err != nil {
		t.Fatalf("ReadWAV with LIST chunk: %v", err)
	}
	if got.Len() != orig.Len() {
		t.Errorf("len = %d, want %d", got.Len(), orig.Len())
	}
}

func BenchmarkWAVRoundTrip(b *testing.B) {
	s := sine(440, 16000, 1, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteWAV(&buf, s); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadWAV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// legacyReadWAV is ReadWAV as it was before DecodeWAV: a streaming
// reader that copies each chunk out of r. It is the oracle for the
// samples and errors of both entry points.
func legacyReadWAV(r io.Reader) (*Signal, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadWAV, err)
	}
	if string(hdr[0:4]) != "RIFF" || string(hdr[8:12]) != "WAVE" {
		return nil, fmt.Errorf("%w: missing RIFF/WAVE magic", ErrBadWAV)
	}
	var (
		rate   uint32
		sawFmt bool
	)
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated chunk header: %v", ErrBadWAV, err)
		}
		id := string(chunk[0:4])
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch id {
		case "fmt ":
			if size < 16 {
				return nil, fmt.Errorf("%w: fmt chunk too small", ErrBadWAV)
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, fmt.Errorf("%w: truncated fmt chunk: %v", ErrBadWAV, err)
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			channels := binary.LittleEndian.Uint16(body[2:4])
			rate = binary.LittleEndian.Uint32(body[4:8])
			bits := binary.LittleEndian.Uint16(body[14:16])
			if format != 1 {
				return nil, fmt.Errorf("%w: unsupported format %d (want PCM)", ErrBadWAV, format)
			}
			if channels != 1 {
				return nil, fmt.Errorf("%w: unsupported channel count %d (want mono)", ErrBadWAV, channels)
			}
			if bits != 16 {
				return nil, fmt.Errorf("%w: unsupported bit depth %d (want 16)", ErrBadWAV, bits)
			}
			sawFmt = true
		case "data":
			if !sawFmt {
				return nil, fmt.Errorf("%w: data chunk before fmt", ErrBadWAV)
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, fmt.Errorf("%w: truncated data chunk: %v", ErrBadWAV, err)
			}
			n := int(size) / 2
			s := &Signal{Samples: make([]float64, n), Rate: float64(rate)}
			for i := 0; i < n; i++ {
				v := int16(binary.LittleEndian.Uint16(body[2*i:]))
				s.Samples[i] = float64(v) / 32767
			}
			return s, nil
		default:
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return nil, fmt.Errorf("%w: truncated %q chunk: %v", ErrBadWAV, id, err)
			}
		}
	}
}

// TestDecodeWAVMatchesStreamingReader decodes well-formed, odd and
// malformed files through DecodeWAV, ReadWAV and the streaming reader
// ReadWAV used to be: all three must give the same samples, bit for
// bit, or the same error.
func TestDecodeWAVMatchesStreamingReader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, sine(440, 16000, 0.05, 0.8)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	with := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	chunk := func(id string, size uint32, body []byte) []byte {
		c := append([]byte(id), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(c[4:], size)
		return append(c, body...)
	}
	fmtBody := good[20:36]
	patch := func(off int, v uint16) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint16(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"good":                       good,
		"trailing bytes":             with(good, []byte("tail")),
		"LIST before data":           with(good[:36], chunk("LIST", 4, []byte("INFO")), good[36:]),
		"empty unknown chunk":        with(good[:36], chunk("junk", 0, nil), good[36:]),
		"odd data size":              with(good[:36], chunk("data", 5, []byte{1, 2, 3, 4, 5})),
		"empty data":                 with(good[:36], chunk("data", 0, nil)),
		"long fmt":                   with(good[:12], chunk("fmt ", 18, with(fmtBody, []byte{0, 0})), good[36:]),
		"empty":                      {},
		"short":                      []byte("RIFF"),
		"bad magic":                  []byte("XXXX0000WAVE"),
		"no chunks":                  good[:12],
		"half chunk header":          good[:16],
		"fmt too small":              with(good[:12], chunk("fmt ", 15, fmtBody[:15])),
		"truncated fmt":              good[:30],
		"fmt then nothing":           good[:20],
		"fmt past the end":           with(good[:12], chunk("fmt ", 1<<20, fmtBody)),
		"data before fmt":            with(good[:12], good[36:]),
		"not PCM":                    patch(20, 3),
		"stereo":                     patch(22, 2),
		"8-bit":                      patch(34, 8),
		"truncated data":             good[:len(good)-3],
		"data then nothing":          with(good[:36], chunk("data", 8, nil)),
		"truncated LIST":             with(good[:36], chunk("LIST", 40, []byte("INFO"))),
		"LIST then nothing":          with(good[:36], chunk("LIST", 40, nil)),
		"unknown chunk past the end": with(good[:36], chunk("LIST", 1<<32-1, good[36:])),
		"data size past the end":     with(good[:40], []byte{0, 0, 0x10, 0}, good[44:]),
	}
	for name, data := range cases {
		want, werr := legacyReadWAV(bytes.NewReader(data))
		for _, dec := range []struct {
			name string
			fn   func([]byte) (*Signal, error)
		}{
			{"DecodeWAV", DecodeWAV},
			{"ReadWAV", func(b []byte) (*Signal, error) { return ReadWAV(bytes.NewReader(b)) }},
		} {
			got, err := dec.fn(data)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Errorf("%s: %s: err = %v, want %v", name, dec.name, err, werr)
				continue
			}
			if err != nil {
				if !errors.Is(err, ErrBadWAV) {
					t.Errorf("%s: %s: %v is not ErrBadWAV", name, dec.name, err)
				}
				continue
			}
			if got.Rate != want.Rate || len(got.Samples) != len(want.Samples) {
				t.Errorf("%s: %s: %d samples at %v Hz, want %d at %v Hz", name, dec.name,
					len(got.Samples), got.Rate, len(want.Samples), want.Rate)
				continue
			}
			for i := range got.Samples {
				if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
					t.Errorf("%s: %s: sample %d = %v, want %v", name, dec.name, i, got.Samples[i], want.Samples[i])
					break
				}
			}
		}
	}
}

// TestDecodeWAVHugeChunkSize pins that a chunk header claiming far more
// bytes than the file holds fails without allocating what it claims;
// the streaming reader allocated the claimed size before reading it.
func TestDecodeWAVHugeChunkSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, sine(440, 16000, 0.01, 0.8)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	huge := func(at int) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[at:], 0xffffffff)
		return b
	}
	for name, data := range map[string][]byte{
		"fmt":  huge(16),
		"data": huge(40),
		"LIST": bytes.Join([][]byte{good[:36], []byte("LIST\xff\xff\xff\xff"), good[36:]}, nil),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeWAV(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadWAV) || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s chunk of 4 GiB: err = %v, want a truncated-chunk ErrBadWAV", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s chunk of 4 GiB: decoding allocated %d bytes", name, n)
		}
	}
}
