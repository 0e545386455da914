package protocol

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn under GOMAXPROCS n: 1 keeps every decode inline,
// 2 lets one decode at a time pipeline.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// watchedBody is a request body that fails the test when it is read
// after the decode returned, and notes whether it was read while a
// pipe was busy, which is how the test knows the helper ran.
type watchedBody struct {
	t        *testing.T
	r        io.Reader
	returned atomic.Bool
	piped    atomic.Bool
}

func (b *watchedBody) Read(p []byte) (int, error) {
	if b.returned.Load() {
		b.t.Error("body read after the decode returned")
	}
	pipes.Lock()
	if pipes.busy > 0 {
		b.piped.Store(true)
	}
	pipes.Unlock()
	return b.r.Read(p)
}

// failingReader returns err once at bytes of r have been read, first
// waiting for delay: a connection that stalls and then drops.
type failingReader struct {
	r     io.Reader
	at    int
	delay time.Duration
	err   error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.at <= 0 {
		time.Sleep(f.delay)
		return 0, f.err
	}
	if len(p) > f.at {
		p = p[:f.at]
	}
	n, err := f.r.Read(p)
	f.at -= n
	return n, err
}

// waitGoroutines waits for the goroutine count to fall back to n: a
// joined helper has run its last statement, but may not have exited.
func waitGoroutines(t *testing.T, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after the decode, %d before", name, runtime.NumGoroutine(), n)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineExitPaths runs every way a pipelined decode can end and
// checks that it returns the inline decode's error, that the helper is
// joined (the body is not read once the decode returned, and the
// goroutine count goes back to where it was), and that the helper did
// run.
func TestPipelineExitPaths(t *testing.T) {
	genuine, err := EncodeRequest(sampleSession(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	doc := inflate(t, genuine)
	// A syntax error half way through the document, after a first chunk.
	broken := bytes.Clone(doc)
	broken[len(broken)/2] = '}'
	badCRC := bytes.Clone(genuine)
	badCRC[len(badCRC)-8] ^= 0xff
	dropped := errors.New("connection dropped")
	cases := []struct {
		name string
		body func() io.Reader
		is   error // nil: must decode
	}{
		{"valid", func() io.Reader { return bytes.NewReader(genuine) }, nil},
		{"parse error mid-document", func() io.Reader { return bytes.NewReader(gzipMember(t, broken)) }, nil},
		{"read error mid-stream", func() io.Reader {
			return &failingReader{r: bytes.NewReader(genuine), at: len(genuine) / 2, err: dropped}
		}, dropped},
		{"read blocks, then fails", func() io.Reader {
			return &failingReader{r: bytes.NewReader(genuine), at: len(genuine) / 2, delay: 50 * time.Millisecond, err: dropped}
		}, dropped},
		{"corrupt CRC-32", func() io.Reader { return bytes.NewReader(badCRC) }, gzip.ErrChecksum},
		{"over the size cap", func() io.Reader {
			return bytes.NewReader(paddedBody(t, minimalBody, MaxPayloadBytes+1))
		}, ErrTooLarge},
	}
	for _, tc := range cases {
		var inline error
		withProcs(1, func() { _, inline = DecodeRequest(tc.body()) })
		switch {
		case tc.name == "parse error mid-document":
			if inline == nil || !strings.HasPrefix(inline.Error(), "protocol: parsing request") {
				t.Fatalf("%s: inline err = %v, want a parse error", tc.name, inline)
			}
		case tc.is == nil && inline != nil, tc.is != nil && !errors.Is(inline, tc.is):
			t.Fatalf("%s: inline err = %v, want %v", tc.name, inline, tc.is)
		}
		withProcs(2, func() {
			before := runtime.NumGoroutine()
			body := &watchedBody{t: t, r: tc.body()}
			_, err := DecodeRequest(body)
			body.returned.Store(true)
			if !body.piped.Load() {
				t.Errorf("%s: the helper never read the body", tc.name)
			}
			if (err == nil) != (inline == nil) || err != nil && err.Error() != inline.Error() {
				t.Errorf("%s: pipelined err = %v, inline err = %v", tc.name, err, inline)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("%s: pipelined err = %v, want %v", tc.name, err, tc.is)
			}
			waitGoroutines(t, tc.name, before)
		})
	}
}

// TestPipelineMatchesInline decodes FuzzDecodeBodies' seed corpus
// inline and pipelined into each request type: both must refuse a
// document with the same error or decode it to the same values, bit for
// bit. Each document is also decoded after 64 KiB of leading
// whitespace, so that even the short ones outlast the first chunk and
// go through the helper.
func TestPipelineMatchesInline(t *testing.T) {
	pad := bytes.Repeat([]byte{' '}, 64<<10)
	decoders := []struct {
		name   string
		decode func(io.Reader) (any, error)
	}{
		{"DecodeRequest", func(r io.Reader) (any, error) { return DecodeRequest(r) }},
		{"DecodeVoiceprint", func(r io.Reader) (any, error) { return DecodeVoiceprint(r) }},
		{"DecodeEnroll", func(r io.Reader) (any, error) { return DecodeEnroll(r) }},
	}
	for i, seed := range fuzzSeeds(t) {
		for _, doc := range [][]byte{seed, append(pad[:len(pad):len(pad)], seed...)} {
			body := gzipMember(t, doc)
			for _, dec := range decoders {
				var inline, piped any
				var ierr, perr error
				withProcs(1, func() { inline, ierr = dec.decode(bytes.NewReader(body)) })
				withProcs(2, func() { piped, perr = dec.decode(bytes.NewReader(body)) })
				if (ierr == nil) != (perr == nil) || ierr != nil && ierr.Error() != perr.Error() {
					t.Errorf("seed %d (%d bytes): %s: pipelined err = %v, inline err = %v", i, len(doc), dec.name, perr, ierr)
					continue
				}
				if ierr != nil {
					continue
				}
				ij, err := json.Marshal(inline)
				if err != nil {
					t.Fatal(err)
				}
				pj, err := json.Marshal(piped)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(inline, piped) || !bytes.Equal(ij, pj) {
					t.Errorf("seed %d (%d bytes): %s: pipelined decode differs from inline", i, len(doc), dec.name)
				}
			}
		}
	}
}
