// Package baseline implements the acoustic-only replay countermeasure the
// paper's related work surveys (§II: far-field/channel-noise replay
// detectors, all of which "suffer from high false acceptance rate").
// It classifies an utterance as live or replayed purely from spectral
// statistics of the audio — no sensors — and serves as the comparison
// point that motivates VoiceGuard's physical (magnetometer + sound-field)
// approach.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
	"voiceguard/internal/svm"
)

// featureBands are the octave-ish analysis bands in Hz. Playback through
// a loudspeaker reshapes the band balance (bass roll-off, treble cut) and
// adds a noise floor.
var featureBands = [...][2]float64{
	{60, 250}, {250, 500}, {500, 1000}, {1000, 2000},
	{2000, 3500}, {3500, 5000}, {5000, 6500}, {6500, 7900},
}

// Features extracts the replay-detection feature vector of an utterance:
// band log-energies normalized to the total (channel shape), the spectral
// rolloff frequency, the high/low band ratio, and a noise-floor estimate
// from the quietest frames.
func Features(s *audio.Signal) ([]float64, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("baseline: empty signal")
	}
	sp, err := dsp.STFT(s.Samples, dsp.STFTConfig{
		FrameSize:  512,
		HopSize:    256,
		SampleRate: s.Rate,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: analyzing utterance: %w", err)
	}
	nyquist := s.Rate / 2

	// Mean band energies across frames.
	bandE := make([]float64, len(featureBands))
	var total float64
	for f := 0; f < sp.NumFrames(); f++ {
		for b, band := range featureBands {
			hi := band[1]
			if hi > nyquist {
				hi = nyquist
			}
			e := sp.BandEnergy(f, band[0], hi)
			bandE[b] += e
			total += e
		}
	}
	if total <= 0 {
		return nil, errors.New("baseline: silent utterance")
	}
	out := make([]float64, 0, len(featureBands)+3)
	for _, e := range bandE {
		out = append(out, math.Log(e/total+1e-12))
	}

	// Spectral rolloff: the frequency below which 95% of energy lies,
	// averaged over frames.
	var rolloff float64
	for f := 0; f < sp.NumFrames(); f++ {
		frame := sp.Frames[f]
		var fe float64
		for _, v := range frame {
			fe += v * v
		}
		if fe <= 0 {
			continue
		}
		var acc float64
		k := 0
		for ; k < len(frame); k++ {
			acc += frame[k] * frame[k]
			if acc >= 0.95*fe {
				break
			}
		}
		rolloff += sp.BinFreq(k)
	}
	rolloff /= float64(sp.NumFrames())
	out = append(out, rolloff/nyquist)

	// High/low ratio.
	lo := bandE[0] + bandE[1] + bandE[2]
	hi := bandE[5] + bandE[6] + bandE[7]
	out = append(out, math.Log((hi+1e-12)/(lo+1e-12)))

	// Noise floor: mean energy of the quietest decile of frames relative
	// to the overall mean (playback adds amplifier hiss).
	energies := make([]float64, sp.NumFrames())
	var meanE float64
	for f := range energies {
		energies[f] = sp.BandEnergy(f, 60, nyquist)
		meanE += energies[f]
	}
	meanE /= float64(len(energies))
	sortFloats(energies)
	decile := energies[:max(1, len(energies)/10)]
	var floor float64
	for _, e := range decile {
		floor += e
	}
	floor /= float64(len(decile))
	out = append(out, math.Log((floor+1e-12)/(meanE+1e-12)))
	return out, nil
}

// Detector is a trained acoustic replay detector.
type Detector struct {
	model *svm.Model
}

// Train fits the detector from live and replayed utterances.
func Train(live, replayed []*audio.Signal, seed int64) (*Detector, error) {
	if len(live) == 0 || len(replayed) == 0 {
		return nil, fmt.Errorf("baseline: training needs both classes (%d live, %d replayed)",
			len(live), len(replayed))
	}
	var x [][]float64
	var y []int
	for _, s := range live {
		f, err := Features(s)
		if err != nil {
			return nil, err
		}
		x = append(x, f)
		y = append(y, 1)
	}
	for _, s := range replayed {
		f, err := Features(s)
		if err != nil {
			return nil, err
		}
		x = append(x, f)
		y = append(y, -1)
	}
	m, err := svm.Train(x, y, svm.TrainConfig{Seed: seed, Lambda: 1e-2})
	if err != nil {
		return nil, fmt.Errorf("baseline: training detector: %w", err)
	}
	return &Detector{model: m}, nil
}

// Score returns the liveness margin of an utterance: positive = live.
func (d *Detector) Score(s *audio.Signal) (float64, error) {
	f, err := Features(s)
	if err != nil {
		return 0, err
	}
	return d.model.Margin(f), nil
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
