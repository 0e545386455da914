package dsp

import (
	"errors"
	"math"
	"testing"
)

func chirpSignal(n int, rate, f0, f1 float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / rate
		dur := float64(n) / rate
		f := f0 + (f1-f0)*t/dur
		x[i] = math.Sin(2 * math.Pi * f * t)
	}
	return x
}

func TestSTFTTonePeak(t *testing.T) {
	const rate = 48000.0
	x := make([]float64, 48000)
	const freq = 19000.0
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
	}
	sp, err := STFT(x, STFTConfig{FrameSize: 1024, HopSize: 512, SampleRate: rate})
	if err != nil {
		t.Fatalf("STFT: %v", err)
	}
	if sp.NumFrames() != 1+(len(x)-1024)/512 {
		t.Errorf("frames = %d", sp.NumFrames())
	}
	for f := 0; f < sp.NumFrames(); f += 10 {
		bin, mag := sp.PeakBin(f, 16000, 24000)
		if bin < 0 || mag <= 0 {
			t.Fatalf("frame %d: no peak", f)
		}
		got := sp.BinFreq(bin)
		if math.Abs(got-freq) > rate/1024 {
			t.Errorf("frame %d: peak at %v Hz, want %v", f, got, freq)
		}
	}
}

func TestSTFTChirpTracksFrequency(t *testing.T) {
	const rate = 48000.0
	x := chirpSignal(48000, rate, 17000, 21000)
	sp, err := STFT(x, STFTConfig{FrameSize: 2048, HopSize: 1024, SampleRate: rate})
	if err != nil {
		t.Fatalf("STFT: %v", err)
	}
	first, _ := sp.PeakBin(0, 15000, 23000)
	last, _ := sp.PeakBin(sp.NumFrames()-1, 15000, 23000)
	if sp.BinFreq(first) >= sp.BinFreq(last) {
		t.Errorf("chirp should rise: first %v Hz, last %v Hz", sp.BinFreq(first), sp.BinFreq(last))
	}
}

func TestSTFTErrors(t *testing.T) {
	short := make([]float64, 10)
	if _, err := STFT(short, STFTConfig{FrameSize: 1024, HopSize: 512, SampleRate: 48000}); !errors.Is(err, ErrShortSignal) {
		t.Errorf("short input err = %v, want ErrShortSignal", err)
	}
	x := make([]float64, 2048)
	bad := []STFTConfig{
		{FrameSize: 0, HopSize: 1, SampleRate: 48000},
		{FrameSize: 256, HopSize: 0, SampleRate: 48000},
		{FrameSize: 256, HopSize: 128, SampleRate: 0},
		{FrameSize: 256, HopSize: 128, FFTSize: 128, SampleRate: 48000},
	}
	for i, cfg := range bad {
		if _, err := STFT(x, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestSTFTBandEnergy(t *testing.T) {
	const rate = 48000.0
	x := make([]float64, 8192)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 19000 * float64(i) / rate)
	}
	sp, err := STFT(x, STFTConfig{FrameSize: 1024, HopSize: 1024, SampleRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	inBand := sp.BandEnergy(0, 18000, 20000)
	outBand := sp.BandEnergy(0, 100, 10000)
	if inBand <= 100*outBand {
		t.Errorf("in-band energy %v not dominant over out-of-band %v", inBand, outBand)
	}
	if sp.BandEnergy(-1, 0, 1000) != 0 || sp.BandEnergy(9999, 0, 1000) != 0 {
		t.Error("out-of-range frame should have zero energy")
	}
	if b, m := sp.PeakBin(-1, 0, 1000); b != -1 || m != 0 {
		t.Error("out-of-range frame should have no peak")
	}
}

func TestSTFTFrameTime(t *testing.T) {
	sp := &Spectrogram{SampleRate: 48000, HopSize: 480}
	if got := sp.FrameTime(100); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("FrameTime(100) = %v, want 1.0", got)
	}
}

func TestWindowProperties(t *testing.T) {
	for _, w := range []Window{WindowRect, WindowHann, WindowHamming, WindowBlackman} {
		t.Run(w.String(), func(t *testing.T) {
			c, err := w.SharedCoefficients(128)
			if err != nil {
				t.Fatal(err)
			}
			if len(c) != 128 {
				t.Fatalf("len = %d", len(c))
			}
			for i, v := range c {
				if v < -1e-12 || v > 1+1e-12 {
					t.Errorf("coef[%d] = %v out of [0,1]", i, v)
				}
			}
		})
	}
	if (Window(99)).String() != "unknown" {
		t.Error("unknown window String")
	}
	if got, err := WindowHann.SharedCoefficients(1); err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf("length-1 window = %v (err %v)", got, err)
	}
	// Hann endpoints: periodic window starts at 0.
	c, err := WindowHann.SharedCoefficients(64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]) > 1e-12 {
		t.Errorf("hann[0] = %v, want 0", c[0])
	}
	if math.Abs(c[32]-1) > 1e-12 {
		t.Errorf("hann[N/2] = %v, want 1", c[32])
	}
	// Rect is all ones.
	c, err = WindowRect.SharedCoefficients(77)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if v != 1 {
			t.Errorf("rect[%d] = %v, want 1", i, v)
		}
	}
}

func TestWindowNegativeLengthError(t *testing.T) {
	if _, err := WindowHann.SharedCoefficients(-1); err == nil {
		t.Error("expected error on negative window length")
	}
}
