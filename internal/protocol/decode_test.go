package protocol

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// bodyDecoders runs each of the three HTTP body decoders, so the framing
// and size-cap tests pin one accept/reject behaviour for all of them.
var bodyDecoders = []struct {
	name   string
	decode func(io.Reader) error
}{
	{"DecodeRequest", func(r io.Reader) error { _, err := DecodeRequest(r); return err }},
	{"DecodeVoiceprint", func(r io.Reader) error { _, err := DecodeVoiceprint(r); return err }},
	{"DecodeEnroll", func(r io.Reader) error { _, err := DecodeEnroll(r); return err }},
}

// minimalBody is a document every decoder accepts: each request type
// reads its own identity member and ignores the other one.
const minimalBody = `{"claimed_user":"x","user":"x"}`

// gzipMember compresses doc into one gzip member.
func gzipMember(t testing.TB, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(doc); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// paddedBody gzips doc followed by spaces up to size bytes of
// decompressed document, without holding the document in memory.
func paddedBody(t *testing.T, doc string, size int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(zw, doc); err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte{' '}, 1<<20)
	for left := size - int64(len(doc)); left > 0; {
		n := int64(len(pad))
		if n > left {
			n = left
		}
		if _, err := zw.Write(pad[:n]); err != nil {
			t.Fatal(err)
		}
		left -= n
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTooLarge(t *testing.T) {
	atCap := paddedBody(t, minimalBody, MaxPayloadBytes)
	overCap := paddedBody(t, minimalBody, MaxPayloadBytes+1)
	// The size cap outranks a malformed document, as when the whole body
	// was read before parsing.
	malformedOverCap := paddedBody(t, "x", MaxPayloadBytes+1)
	for _, dec := range bodyDecoders {
		if err := dec.decode(bytes.NewReader(atCap)); err != nil {
			t.Errorf("%s: body of exactly MaxPayloadBytes refused: %v", dec.name, err)
		}
		if err := dec.decode(bytes.NewReader(overCap)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: body of MaxPayloadBytes+1 = %v, want ErrTooLarge", dec.name, err)
		}
		if err := dec.decode(bytes.NewReader(malformedOverCap)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: malformed body of MaxPayloadBytes+1 = %v, want ErrTooLarge", dec.name, err)
		}
	}
}

func TestGzipFraming(t *testing.T) {
	valid := gzipMember(t, []byte(minimalBody))
	corrupt := func(off int) []byte {
		b := bytes.Clone(valid)
		b[len(b)+off] ^= 0xff
		return b
	}
	malformedBadCRC := gzipMember(t, []byte(`{"claimed_user":x}`))
	malformedBadCRC[len(malformedBadCRC)-8] ^= 0xff
	// The document split across two members still reads as one stream,
	// as gzip.Reader's multistream default does.
	split := len(minimalBody) / 2
	cases := []struct {
		name string
		body []byte
		ok   bool
		is   error // the error wrapped, when it is pinned
	}{
		{"valid", valid, true, nil},
		{"truncated deflate data", valid[:len(valid)/2], false, io.ErrUnexpectedEOF},
		{"truncated trailer", valid[:len(valid)-3], false, io.ErrUnexpectedEOF},
		{"corrupted CRC-32", corrupt(-8), false, gzip.ErrChecksum},
		{"corrupted ISIZE", corrupt(-1), false, gzip.ErrChecksum},
		// A read error outranks a malformed document.
		{"malformed document, corrupted CRC-32", malformedBadCRC, false, gzip.ErrChecksum},
		{"non-whitespace after value", gzipMember(t, []byte(minimalBody+" x")), false, nil},
		{"trailing whitespace", gzipMember(t, []byte(minimalBody+" \t\r\n")), true, nil},
		{"two members, one value each",
			append(gzipMember(t, []byte(minimalBody)), gzipMember(t, []byte(minimalBody))...), false, nil},
		{"two members, one value across both",
			append(gzipMember(t, []byte(minimalBody[:split])), gzipMember(t, []byte(minimalBody[split:]))...), true, nil},
		{"garbage after the member", append(bytes.Clone(valid), "junk"...), false, nil},
		{"empty document", gzipMember(t, nil), false, nil},
		{"not gzip", []byte(minimalBody), false, nil},
	}
	for _, tc := range cases {
		for _, dec := range bodyDecoders {
			err := dec.decode(bytes.NewReader(tc.body))
			if (err == nil) != tc.ok {
				t.Errorf("%s: %s: err = %v, want ok=%v", tc.name, dec.name, err, tc.ok)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("%s: %s: err = %v, want %v", tc.name, dec.name, err, tc.is)
			}
			if err != nil && !strings.HasPrefix(err.Error(), "protocol: ") {
				t.Errorf("%s: %s: error %q lacks the package prefix", tc.name, dec.name, err)
			}
		}
	}
}

// inflate returns the JSON document inside a gzip body.
func inflate(t testing.TB, body []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// sameAsOracle decodes doc with the streaming decoder and with
// json.Unmarshal into the same request type, and reports any difference
// in acceptance or in the decoded values. Comparing the re-encoded JSON
// as well as reflect.DeepEqual catches float bits DeepEqual's == hides
// (0 and -0).
func sameAsOracle[T any](t *testing.T, name string, doc []byte, decode func(io.Reader) (*T, error)) {
	t.Helper()
	got, err := decode(bytes.NewReader(gzipMember(t, doc)))
	want := new(T)
	werr := json.Unmarshal(doc, want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: streaming err = %v, encoding/json err = %v", name, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, encoding/json decoded %+v", name, got, want)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: re-encodes as %.200s, encoding/json's as %.200s", name, gotJSON, wantJSON)
	}
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		req := sampleSession(t, seed)
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, "genuine", inflate(t, body), DecodeRequest)
		// The decoded request re-encodes to the very bytes it came from.
		got, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeRequest(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, body) {
			t.Errorf("seed %d: decoded request re-encodes differently", seed)
		}
		vp, err := EncodeVoiceprint(&VoiceprintRequest{ClaimedUser: req.ClaimedUser, VoiceWAV: req.VoiceWAV})
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, "voiceprint", inflate(t, vp), DecodeVoiceprint)
		en, err := EncodeEnroll(&EnrollRequest{User: "u", Sessions: [][][]byte{{req.VoiceWAV, req.CaptureWAV}, {}}})
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, "enroll", inflate(t, en), DecodeEnroll)
	}
}

// hostileBodies are documents in the shapes a hand-written decoder most
// easily gets wrong; each must decode exactly as encoding/json does.
var hostileBodies = []string{
	// Duplicate keys decode over the earlier value, reusing the slice.
	`{"gyro":[{"t":1,"x":2},{"t":3}],"gyro":[{"y":5}],"gyro":[{"z":1},null,{}]}`,
	`{"voice_wav":"AAEC","voice_wav":[7],"voice_wav":[7,null,null],"voice_wav":[]}`,
	`{"sessions":[["AAEC","AAAA"],[]],"sessions":[[null,"QQ=="]],"sessions":[[[1],null],null]}`,
	// null over an already set field.
	`{"claimed_user":"a","claimed_user":null,"gyro":[{"t":1}],"gyro":null,"pilot_hz":3,"pilot_hz":null}`,
	`{"user":"u","user":null,"sessions":[["AAAA"]],"sessions":null,"voice_wav":"AAAA","voice_wav":null}`,
	`null`,
	` {} `,
	// Case-folded, Unicode-folded and escaped keys.
	`{"CLAIMED_USER":"a","Claimed_User":"b","ſweep_start":1,"SWEEP_END":2,"Voice_Wav":"AAAA","USER":"u","SeSSions":[["AAAA"]]}`,
	`{"claimed\u005fuser":"esc","gyro":[{"T":4,"X":5}],"K":1,"ﬁeld":[]}`,
	// Unknown members, nested.
	`{"extra":{"a":[1,{"b":null}],"c":"d\u0000"},"gyro":[{"t":1,"w":{"q":[true,false,-0.5e-3]}}],"field":[{"angle_deg":-0,"db":1}]}`,
	// Escapes and invalid UTF-8 in the claimed user.
	`{"claimed_user":"a\"b\\c\/d\b\f\n\r\té😀\ud83d\ude00\ud800x\udc00\ud800A"}`,
	"{\"claimed_user\":\"\xff\xfe\xc0\xaf\xed\xa0\x80\xe2\x82\"}",
	"{\"user\":\"caf\xc3\xa9\"}",
	// A JSON number array in a byte field.
	`{"voice_wav":[1,2,255],"capture_wav":[0]}`,
	`{"voice_wav":[256]}`,
	`{"voice_wav":[1.5]}`,
	`{"voice_wav":[-1]}`,
	`{"voice_wav":[null,"a"]}`,
	// Escaped newlines and characters inside base64.
	`{"voice_wav":"AA\r\nAA","capture_wav":"QUF=\n"}`,
	`{"voice_wav":"QUJD="}`,
	`{"voice_wav":"AA==","capture_wav":"AA=","field":[]}`,
	`{"voice_wav":"AA==AAAA"}`,
	`{"voice_wav":"A"}`,
	`{"voice_wav":"QUJD\tQUJD"}`,
	`{"voice_wav":"ÀAAA"}`,
	`{"voice_wav":""}`,
	// Out-of-range and malformed numbers.
	`{"pilot_hz":1e400}`,
	`{"sweep_start":-1e-400,"sweep_end":-0,"pilot_hz":0.1e+2}`,
	`{"voice_wav":[1e2]}`,
	`{"pilot_hz":01}`,
	`{"pilot_hz":1.}`,
	`{"pilot_hz":-}`,
	`{"pilot_hz":"1"}`,
	`{"gyro":[{"t":true}]}`,
	// Wrong shapes and broken syntax.
	`[]`,
	`{"gyro":{}}`,
	`{"gyro":[1]}`,
	`{"claimed_user":"a",}`,
	`{"claimed_user" "a"}`,
	`{"gyro":[{"t":1},]}`,
	`{"claimed_user":"a"} {}`,
	`{"x":tru}`,
	"{\"claimed_user\":\"a\x01\"}",
	`{"claimed_user":"\x"}`,
	`{"claimed_user":"\u12"}`,
}

// deepNesting wraps an unknown member's value in depth arrays, so the
// document nests depth+1 levels counting the top-level object.
func deepNesting(depth int) string {
	return `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
}

// fuzzSeeds are real encoder outputs plus the hostile shapes.
func fuzzSeeds(t testing.TB) [][]byte {
	small := &VerifyRequest{
		ClaimedUser: "victim",
		Gyro:        []SampleJSON{{T: 0.01, X: -1.5e-3, Y: 2, Z: -0}},
		Accel:       []SampleJSON{{T: 0.02, X: 9.81}},
		Mag:         []SampleJSON{},
		SweepStart:  0.5, SweepEnd: 1.25, PilotHz: 20000,
		CaptureWAV: encodeB64([]byte("RIFF capture")),
		Field:      []FieldJSON{{AngleDeg: -30, FreqHz: 1000, LevelDB: -12.5}},
		VoiceWAV:   encodeB64([]byte("RIFF voice")),
	}
	var seeds [][]byte
	for _, req := range []*VerifyRequest{small, sampleSession(t, 11)} {
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, inflate(t, body))
	}
	vp, err := EncodeVoiceprint(&VoiceprintRequest{ClaimedUser: "victim", VoiceWAV: small.VoiceWAV})
	if err != nil {
		t.Fatal(err)
	}
	en, err := EncodeEnroll(&EnrollRequest{User: "victim", Sessions: [][][]byte{{small.VoiceWAV}, {small.CaptureWAV, small.VoiceWAV}}})
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, inflate(t, vp), inflate(t, en))
	for _, doc := range hostileBodies {
		seeds = append(seeds, []byte(doc))
	}
	// Padding that ends a decode batch, followed by another batch.
	padded := `{"voice_wav":"` + strings.Repeat("A", b64Batch-4) + "QQ==" + strings.Repeat("A", b64Batch) + `"}`
	return append(seeds, []byte(padded), []byte(deepNesting(maxDepth-1)), []byte(deepNesting(maxDepth)))
}

// FuzzDecodeBodies is the differential check of the streaming decoders
// against encoding/json: the fuzzed document is gzipped and decoded
// both ways into each request type; both must refuse it, or both must
// accept it with identical values. Plain go test runs it over the seeds,
// the hostile shapes included.
func FuzzDecodeBodies(f *testing.F) {
	for _, doc := range fuzzSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		sameAsOracle(t, "DecodeRequest", doc, DecodeRequest)
		sameAsOracle(t, "DecodeVoiceprint", doc, DecodeVoiceprint)
		sameAsOracle(t, "DecodeEnroll", doc, DecodeEnroll)
	})
}

// The decode benchmarks run on a realistic genuine upload: one session
// built with FromSession, gzipped by the matching encoder.

func BenchmarkDecodeRequest(b *testing.B) {
	body, err := EncodeRequest(sampleSession(b, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeVoiceprint(b *testing.B) {
	req := sampleSession(b, 1)
	body, err := EncodeVoiceprint(&VoiceprintRequest{ClaimedUser: req.ClaimedUser, VoiceWAV: req.VoiceWAV})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeVoiceprint(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
