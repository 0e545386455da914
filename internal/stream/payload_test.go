package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The perValue* decoders read every array value through payloadReader.f64,
// one bounds check and error return per value, as the decoders did
// before they read arrays in one pass. They are the oracle of the
// one-pass decoders: same values bit for bit, same errors.

func perValueSensorChunk(p []byte) (SensorChunk, error) {
	r := &payloadReader{buf: p, what: "sensor_chunk"}
	kind, err := r.u8("kind")
	if err != nil {
		return SensorChunk{}, err
	}
	if SensorKind(kind) > SensorMag {
		return SensorChunk{}, fmt.Errorf("stream: sensor_chunk payload: unknown sensor kind %d", kind)
	}
	count, err := r.u32("count")
	if err != nil {
		return SensorChunk{}, err
	}
	n, err := r.elems("count", count, 32)
	if err != nil {
		return SensorChunk{}, err
	}
	c := SensorChunk{Kind: SensorKind(kind), Samples: make([]Sample, n)}
	for i := range c.Samples {
		s := &c.Samples[i]
		for _, dst := range []*float64{&s.T, &s.X, &s.Y, &s.Z} {
			if *dst, err = r.f64("sample"); err != nil {
				return SensorChunk{}, err
			}
		}
	}
	return c, r.leftover()
}

func perValueFieldChunk(p []byte) (FieldChunk, error) {
	r := &payloadReader{buf: p, what: "field_chunk"}
	count, err := r.u32("count")
	if err != nil {
		return FieldChunk{}, err
	}
	n, err := r.elems("count", count, 24)
	if err != nil {
		return FieldChunk{}, err
	}
	c := FieldChunk{Points: make([]FieldPoint, n)}
	for i := range c.Points {
		pt := &c.Points[i]
		for _, dst := range []*float64{&pt.AngleDeg, &pt.FreqHz, &pt.LevelDB} {
			if *dst, err = r.f64("point"); err != nil {
				return FieldChunk{}, err
			}
		}
	}
	return c, r.leftover()
}

func perValueAudioChunk(p []byte) (AudioChunk, error) {
	r := &payloadReader{buf: p, what: "audio_chunk"}
	kind, err := r.u8("kind")
	if err != nil {
		return AudioChunk{}, err
	}
	if AudioKind(kind) > AudioVoice {
		return AudioChunk{}, fmt.Errorf("stream: audio_chunk payload: unknown audio kind %d", kind)
	}
	c := AudioChunk{Kind: AudioKind(kind)}
	if c.Rate, err = r.f64("rate"); err != nil {
		return AudioChunk{}, err
	}
	count, err := r.u32("count")
	if err != nil {
		return AudioChunk{}, err
	}
	n, err := r.elems("count", count, 8)
	if err != nil {
		return AudioChunk{}, err
	}
	c.Samples = make([]float64, n)
	for i := range c.Samples {
		if c.Samples[i], err = r.f64("sample"); err != nil {
			return AudioChunk{}, err
		}
	}
	return c, r.leftover()
}

// bitsOf flattens decoded values to their bits, so NaN payloads and
// signed zeros compare exactly.
func bitsOf(vals ...float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func sensorBits(c SensorChunk) []uint64 {
	var vals []float64
	for _, s := range c.Samples {
		vals = append(vals, s.T, s.X, s.Y, s.Z)
	}
	return append(bitsOf(vals...), uint64(c.Kind))
}

func fieldBits(c FieldChunk) []uint64 {
	var vals []float64
	for _, pt := range c.Points {
		vals = append(vals, pt.AngleDeg, pt.FreqHz, pt.LevelDB)
	}
	return bitsOf(vals...)
}

func audioBits(c AudioChunk) []uint64 {
	return append(bitsOf(append([]float64{c.Rate}, c.Samples...)...), uint64(c.Kind))
}

// sameDecode compares two decodes by value bits and error text.
func sameDecode(got, want []uint64, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("value %d bits %#x, want %#x", i, got[i], want[i])
		}
	}
	return nil
}

// checkChunkDecoders runs p through all three one-pass decoders and
// their per-value oracles.
func checkChunkDecoders(p []byte) error {
	s, sErr := DecodeSensorChunk(p)
	ws, wsErr := perValueSensorChunk(p)
	if err := sameDecode(sensorBits(s), sensorBits(ws), sErr, wsErr); err != nil {
		return fmt.Errorf("sensor chunk: %w", err)
	}
	f, fErr := DecodeFieldChunk(p)
	wf, wfErr := perValueFieldChunk(p)
	if err := sameDecode(fieldBits(f), fieldBits(wf), fErr, wfErr); err != nil {
		return fmt.Errorf("field chunk: %w", err)
	}
	a, aErr := DecodeAudioChunk(p)
	wa, waErr := perValueAudioChunk(p)
	if err := sameDecode(audioBits(a), audioBits(wa), aErr, waErr); err != nil {
		return fmt.Errorf("audio chunk: %w", err)
	}
	// The decode-into path, as the server runs it: into a recycled
	// block that still holds garbage, here NaNs with payload bits no
	// decode produces, so a sample Into skips shows as a mismatch.
	a, as, aErr := ParseAudioChunk(p)
	if aErr == nil {
		a.Samples = make([]float64, as.Len())
		if as.Len() <= len(recycledBlock) {
			a.Samples = recycledBlock[:as.Len()]
		}
		for i := range a.Samples {
			a.Samples[i] = math.Float64frombits(0x7ff8dead00000000 | uint64(i))
		}
		as.Into(a.Samples)
	}
	if err := sameDecode(audioBits(a), audioBits(wa), aErr, waErr); err != nil {
		return fmt.Errorf("audio chunk into a used block: %w", err)
	}
	return nil
}

// recycledBlock stands in for the server's recycled audio blocks: every
// decode-into check reuses it.
var recycledBlock [DefAudioChunkSamples]float64

// TestChunkDecodersMatchPerValueReader holds the one-pass array decoders
// to the per-value reader on well-formed chunks of every size up to a
// few hundred values, NaN payloads included, and on every truncation
// and extension of them.
func TestChunkDecodersMatchPerValueReader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randBits := func() float64 { return math.Float64frombits(rng.Uint64()) }
	for n := 0; n < 40; n++ {
		var samples []Sample
		var points []FieldPoint
		var audio []float64
		for i := 0; i < n; i++ {
			samples = append(samples, Sample{randBits(), randBits(), randBits(), randBits()})
			points = append(points, FieldPoint{randBits(), randBits(), randBits()})
		}
		for i := 0; i < 7*n; i++ {
			audio = append(audio, randBits())
		}
		payloads := [][]byte{
			EncodeSensorChunk(SensorChunk{Kind: SensorKind(n % 4), Samples: samples}),
			EncodeFieldChunk(FieldChunk{Points: points}),
			EncodeAudioChunk(AudioChunk{Kind: AudioKind(n % 3), Rate: randBits(), Samples: audio}),
		}
		for _, p := range payloads {
			for _, q := range [][]byte{p, p[:len(p)/2], p[:len(p)-1], append(append([]byte(nil), p...), 0)} {
				if err := checkChunkDecoders(q); err != nil {
					t.Fatalf("n=%d, %d-byte payload: %v", n, len(q), err)
				}
			}
		}
	}
}

// FuzzChunkDecodersMatchPerValueReader holds the one-pass decoders, and
// the audio decode into a used block, to the per-value reader on
// arbitrary payloads.
func FuzzChunkDecodersMatchPerValueReader(f *testing.F) {
	f.Add(EncodeAudioChunk(AudioChunk{Kind: AudioVoice, Rate: 16000, Samples: []float64{0.5, math.NaN(), -0.0}}))
	f.Add(EncodeSensorChunk(SensorChunk{Kind: SensorMag, Samples: []Sample{{1, 2, 3, 4}}}))
	f.Add(EncodeFieldChunk(FieldChunk{Points: []FieldPoint{{10, 1000, -3}}}))
	f.Add(binary.LittleEndian.AppendUint32([]byte{1}, 1<<31))
	// A count whose byte size wraps a 32-bit int to the 32 bytes present.
	f.Add(append(binary.LittleEndian.AppendUint32(appendF64([]byte{0}, 44100), 1<<29+4), make([]byte, 32)...))
	f.Fuzz(func(t *testing.T, p []byte) {
		if err := checkChunkDecoders(p); err != nil {
			t.Fatal(err)
		}
	})
}

var sinkChunk AudioChunk

// BenchmarkDecodeAudioChunk decodes one default-size audio chunk (8192
// samples), the bulk of a streamed session's bytes.
func BenchmarkDecodeAudioChunk(b *testing.B) {
	samples := make([]float64, DefAudioChunkSamples)
	for i := range samples {
		samples[i] = math.Sin(float64(i))
	}
	p := EncodeAudioChunk(AudioChunk{Kind: AudioVoice, Rate: 16000, Samples: samples})
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := DecodeAudioChunk(p)
		if err != nil {
			b.Fatal(err)
		}
		sinkChunk = c
	}
}
