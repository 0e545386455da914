package audio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// Property-based tests on the audio substrate's invariants.

func TestWAVRoundTripProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 2000 {
			return true
		}
		s := &Signal{Samples: make([]float64, len(raw)), Rate: 16000}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Constrain to the representable range.
			s.Samples[i] = math.Mod(v, 1)
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, s); err != nil {
			return false
		}
		got, err := ReadWAV(&buf)
		if err != nil {
			return false
		}
		if got.Len() != s.Len() {
			return false
		}
		for i := range got.Samples {
			if math.Abs(got.Samples[i]-s.Samples[i]) > 1.0/32000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPreEmphasisInvertibleProperty(t *testing.T) {
	// y[n] = x[n] - a·x[n-1] is exactly invertible by x[n] = y[n] + a·x[n-1].
	f := func(raw []float64, alphaRaw float64) bool {
		if len(raw) == 0 || len(raw) > 500 || math.IsNaN(alphaRaw) || math.IsInf(alphaRaw, 0) {
			return true
		}
		alpha := math.Mod(math.Abs(alphaRaw), 0.99)
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = math.Mod(v, 10)
		}
		y := PreEmphasis(x, alpha)
		// Invert.
		inv := make([]float64, len(y))
		var prev float64
		for i, v := range y {
			inv[i] = v + alpha*prev
			prev = inv[i]
		}
		for i := range x {
			if math.Abs(inv[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFrameCountProperty(t *testing.T) {
	// Frames never overlap past the end and tile the prefix exactly.
	f := func(nRaw, sizeRaw, hopRaw uint8) bool {
		n, size, hop := int(nRaw), int(sizeRaw)%64+1, int(hopRaw)%32+1
		x := make([]float64, n)
		frames := Frame(x, size, hop)
		if n < size {
			return frames == nil
		}
		want := 1 + (n-size)/hop
		if len(frames) != want {
			return false
		}
		for i, fr := range frames {
			if len(fr) != size {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
