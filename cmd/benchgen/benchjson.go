package main

// -bench-json mode: times the hot-path primitives and the headline
// experiments in-process, at GOMAXPROCS=1, and writes machine-readable
// rows, so CI and the repo can track pipeline latency without parsing
// `go test -bench` text.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
	"voiceguard/internal/experiment"
	"voiceguard/internal/features"
	"voiceguard/internal/gmm"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

// benchRow is one benchmark observation, mirroring the fields of
// `go test -bench -benchmem` output that matter for latency tracking.
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// measure runs fn iters times and reports mean wall time and heap
// allocation count per run. One-shot experiment rows pass iters=1; the
// micro rows average over enough iterations to stabilize the mean.
func measure(name string, iters int, fn func() error) (benchRow, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return benchRow{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return benchRow{
		Name:        name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: (m1.Mallocs - m0.Mallocs) / uint64(iters),
	}, nil
}

// benchSignal synthesizes a deterministic speech-like test utterance.
func benchSignal(seconds float64) *audio.Signal {
	rng := rand.New(rand.NewSource(3))
	n := int(seconds * 16000)
	samples := make([]float64, n)
	for i := range samples {
		t := float64(i) / 16000
		samples[i] = 0.5*math.Sin(2*math.Pi*190*t) +
			0.25*math.Sin(2*math.Pi*380*t) +
			0.1*rng.NormFloat64()
	}
	return &audio.Signal{Rate: 16000, Samples: samples}
}

// benchJSONRows runs every benchmark and returns the rows in a fixed order:
// hot-path micros first, then the experiment-level latencies.
func benchJSONRows(seed int64) ([]benchRow, error) {
	sig := benchSignal(2)

	// The gmm row scores the production-shaped workload: a 32-component
	// UBM trained on real MFCC frames from the repo's own speech
	// synthesis — the model family the serving path actually runs.
	// Well-separated synthetic blobs would let the exp underflow
	// early-out, making the scoring loop artificially cheap.
	utts, err := speech.NewRoster(4, 77).Generate(speech.CorpusConfig{
		Sessions: 2, UtterancesPerSession: 2, Digits: 5,
	})
	if err != nil {
		return nil, fmt.Errorf("generating bench corpus: %w", err)
	}
	var pool [][]float64
	for _, u := range utts {
		fr, err := features.Extract(u.Audio, features.DefaultMFCCConfig())
		if err != nil {
			return nil, fmt.Errorf("extracting bench features: %w", err)
		}
		pool = append(pool, fr...)
	}
	if len(pool) < 300 {
		return nil, fmt.Errorf("bench corpus pooled only %d MFCC frames, want ≥ 300", len(pool))
	}
	model, err := gmm.TrainUBM(pool, gmm.TrainConfig{Components: 32, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("training bench UBM: %w", err)
	}
	scoreFrames := pool[:300]

	// The served gesture capture: 2.5 s of 19 kHz pilot at 48 kHz.
	capture, err := ranging.Simulate(ranging.DefaultChannel(), 2.5,
		func(t float64) float64 { return 0.12 - 0.02*t }, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("simulating bench ranging capture: %w", err)
	}

	// The served HTTP bodies: a genuine session and its voice alone,
	// gzipped by the client's encoders.
	session, err := attack.Genuine(speech.RandomProfile("victim", rand.New(rand.NewSource(seed))), attack.Scenario{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("building bench session: %w", err)
	}
	req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
	if err != nil {
		return nil, fmt.Errorf("converting bench session: %w", err)
	}
	verifyBody, err := protocol.EncodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("encoding bench request: %w", err)
	}
	voiceprintBody, err := protocol.EncodeVoiceprint(&protocol.VoiceprintRequest{ClaimedUser: req.ClaimedUser, VoiceWAV: req.VoiceWAV})
	if err != nil {
		return nil, fmt.Errorf("encoding bench voiceprint request: %w", err)
	}

	var rows []benchRow
	for _, spec := range []struct {
		name  string
		iters int
		fn    func() error
	}{
		{"micro/dsp.FFT1024", 200, func() error {
			buf := make([]complex128, 1024)
			for i := range buf {
				buf[i] = complex(sig.Samples[i], 0)
			}
			dsp.FFT(buf)
			return nil
		}},
		{"micro/dsp.STFT", 50, func() error {
			_, err := dsp.STFT(sig.Samples, dsp.STFTConfig{
				FrameSize: 400, HopSize: 160, FFTSize: 512, SampleRate: 16000,
			})
			return err
		}},
		{"micro/features.Extract", 20, func() error {
			_, err := features.Extract(sig, features.DefaultMFCCConfig())
			return err
		}},
		{"micro/gmm.MeanLogLikelihood", 50, func() error {
			model.MeanLogLikelihood(scoreFrames)
			return nil
		}},
		{"micro/ranging.Recover", 50, func() error {
			_, err := ranging.Recover(capture, ranging.RecoverConfig{Freq: ranging.DefaultPilotHz})
			return err
		}},
		{"micro/protocol.DecodeRequest", 20, func() error {
			_, err := protocol.DecodeRequest(bytes.NewReader(verifyBody))
			return err
		}},
		{"micro/protocol.DecodeVoiceprint", 50, func() error {
			_, err := protocol.DecodeVoiceprint(bytes.NewReader(voiceprintBody))
			return err
		}},
		{"experiment/table1", 1, func() error {
			_, err := experiment.RunTableI(experiment.TableIConfig{Seed: seed + 3, UBMComponents: 32})
			return err
		}},
		{"experiment/fig6", 1, func() error {
			_, err := experiment.RunFig6(seed)
			return err
		}},
		{"experiment/timing", 1, func() error {
			_, err := experiment.RunTiming(experiment.TimingConfig{Users: 4, TrialsPerUser: 3, Seed: seed})
			return err
		}},
	} {
		row, err := measure(spec.name, spec.iters, spec.fn)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	e2e, err := streamLatencyRows(seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, e2e...)
	return rows, nil
}

// streamLatencyRows runs the dual-transport sweep once and reports the
// per-class time-to-first-decision medians: the HTTP full-session attempt
// against the streaming connect-to-verdict time. The stream rows are the
// early-exit payoff the protocol exists for — CI gates them against the
// previous PR's baseline like any other latency row.
func streamLatencyRows(seed int64) ([]benchRow, error) {
	sweep, err := experiment.RunStreamEarlyExit(seed)
	if err != nil {
		return nil, fmt.Errorf("stream latency sweep: %w", err)
	}
	var rows []benchRow
	for _, r := range sweep {
		if !r.VerdictsAgree {
			return nil, fmt.Errorf("stream latency sweep: %s verdicts diverged across transports", r.Class)
		}
		rows = append(rows,
			benchRow{Name: "e2e/http.Decision." + r.Class, NsPerOp: float64(r.HTTPMedian.Nanoseconds())},
			benchRow{Name: "e2e/stream.TimeToDecision." + r.Class, NsPerOp: float64(r.StreamMedian.Nanoseconds())},
		)
	}
	return rows, nil
}

// writeBenchJSON runs the suite at GOMAXPROCS=1, writes the rows to
// path and returns them for an optional baseline comparison. One CPU
// makes a row's allocation count independent of the host's core count:
// work fanned out across workers allocates per worker, and the
// committed baselines (BENCH_pr10.json) are one-CPU runs. The caller's
// GOMAXPROCS is restored on return.
func writeBenchJSON(path string, seed int64) ([]benchRow, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows, err := benchJSONRows(seed)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding bench rows: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	for _, r := range rows {
		fmt.Printf("  %-30s %14.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	return rows, nil
}
