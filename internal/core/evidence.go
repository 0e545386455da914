package core

// Evidence-pack bridging: stable content digests for the models the
// cascade consults and the session bytes it consumes, plus the projection
// of a Decision into the pack's portable record form. Model digests hash
// the exact persisted form (core/persist JSON, whose map keys Go encodes
// sorted), so the same trained state always digests identically and a
// replayer can prove it rebuilt the models the original verdict used.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"voiceguard/internal/audio"
	"voiceguard/internal/evidence"
	"voiceguard/internal/gmm"
	"voiceguard/internal/sensors"
)

// ModelDigests returns the content digests of the speaker-verification
// models: "asv/config" (backend, MFCC front-end, relevance, threshold),
// "asv/ubm", "asv/isv" (when trained) and one "asv/user/<name>" per
// enrolled identity.
func (v *SpeakerVerifier) ModelDigests() (map[string]string, error) {
	out := map[string]string{}
	cfg, err := json.Marshal(struct {
		Backend   Backend `json:"backend"`
		MFCC      any     `json:"mfcc"`
		Relevance float64 `json:"relevance"`
		Threshold float64 `json:"threshold"`
	}{v.backend, v.mfcc, v.relevance, v.Threshold})
	if err != nil {
		return nil, fmt.Errorf("core: digesting ASV config: %w", err)
	}
	out["asv/config"] = evidence.Digest(cfg)
	if f := v.fast; f != nil {
		// The compiled form's provenance: shortlist width, layout version
		// and the source-UBM digest pin exactly which fast path served.
		// Absent when the exact path serves, so replay of exact-path packs
		// stays bit-exact against a plainly rebuilt system.
		doc, err := json.Marshal(struct {
			TopC   int    `json:"top_c"`
			Layout string `json:"layout"`
			UBM    string `json:"ubm"`
		}{f.topC, gmm.ScoringLayout, f.ubm.Digest()})
		if err != nil {
			return nil, fmt.Errorf("core: digesting fast-path config: %w", err)
		}
		out["asv/fast"] = evidence.Digest(doc)
	}

	var buf bytes.Buffer
	if err := v.ubm.Save(&buf); err != nil {
		return nil, fmt.Errorf("core: digesting UBM: %w", err)
	}
	out["asv/ubm"] = evidence.Digest(buf.Bytes())
	if v.isv != nil {
		buf.Reset()
		if err := v.isv.Save(&buf); err != nil {
			return nil, fmt.Errorf("core: digesting ISV: %w", err)
		}
		out["asv/isv"] = evidence.Digest(buf.Bytes())
	}
	v.usersMu.RLock()
	defer v.usersMu.RUnlock()
	for name, ver := range v.users {
		buf.Reset()
		if err := ver.Speaker.Save(&buf); err != nil {
			return nil, fmt.Errorf("core: digesting speaker model %q: %w", name, err)
		}
		out["asv/user/"+name] = evidence.Digest(buf.Bytes())
	}
	for name, spk := range v.isvUsers {
		ref, err := json.Marshal(spk.Ref())
		if err != nil {
			return nil, fmt.Errorf("core: digesting ISV user %q: %w", name, err)
		}
		out["asv/user/"+name] = evidence.Digest(ref)
	}
	return out, nil
}

// ModelDigests returns one "soundfield/band/<deg>" content digest per
// trained angular-width band.
func (v *SoundFieldVerifier) ModelDigests() (map[string]string, error) {
	out := map[string]string{}
	var buf bytes.Buffer
	for k, m := range v.models {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			return nil, fmt.Errorf("core: digesting sound-field band %d: %w", k, err)
		}
		out[fmt.Sprintf("soundfield/band/%d", k)] = evidence.Digest(buf.Bytes())
	}
	return out, nil
}

// ModelDigests returns the content digests of every model and threshold
// configuration the assembled cascade consults — the models.json payload
// of an evidence pack. Stages that are not configured contribute nothing.
func (s *System) ModelDigests() (map[string]string, error) {
	out := map[string]string{}
	if s.Distance != nil {
		cfg, err := json.Marshal(s.Distance)
		if err != nil {
			return nil, fmt.Errorf("core: digesting distance config: %w", err)
		}
		out["distance/config"] = evidence.Digest(cfg)
	}
	if s.Field != nil {
		m, err := s.Field.ModelDigests()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	if s.Speaker != nil {
		cfg, err := json.Marshal(s.Speaker)
		if err != nil {
			return nil, fmt.Errorf("core: digesting loudspeaker config: %w", err)
		}
		out["loudspeaker/config"] = evidence.Digest(cfg)
	}
	if s.Identity != nil {
		m, err := s.Identity.ModelDigests()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// SessionDigest computes the canonical content digest of a session — the
// exact inputs the cascade consumed, encoded as a fixed binary layout
// (strings length-prefixed, floats as IEEE-754 bits little-endian) so the
// digest is independent of any JSON encoder's formatting choices.
func SessionDigest(s *SessionData) string {
	d := evidence.NewDigester()
	writeString(d, s.ClaimedUser)
	if g := s.Gesture; g != nil {
		writeTrace(d, g.Gyro)
		writeTrace(d, g.Accel)
		writeTrace(d, g.Mag)
		writeFloat(d, g.SweepStart)
		writeFloat(d, g.SweepEnd)
		writeSignal(d, g.Capture)
	}
	writeUint(d, uint64(len(s.Field)))
	for _, m := range s.Field {
		writeFloat(d, m.AngleDeg)
		writeFloat(d, m.FreqHz)
		writeFloat(d, m.LevelDB)
	}
	writeSignal(d, s.Voice)
	return d.Sum()
}

// AudioDigest computes the whole-signal and per-frame content digests of
// one audio channel over frameLen-sample windows — the redaction
// stand-in an evidence pack carries in place of raw audio.
func AudioDigest(channel string, sig *audio.Signal, frameLen int) evidence.AudioDigest {
	ad := evidence.AudioDigest{Channel: channel}
	if sig == nil {
		return ad
	}
	ad.Samples = len(sig.Samples)
	whole := evidence.NewDigester()
	writeFloat(whole, sig.Rate)
	var scratch [8]byte
	for _, v := range sig.Samples {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		whole.Write(scratch[:])
	}
	ad.Digest = whole.Sum()
	if frameLen <= 0 {
		return ad
	}
	ad.FrameLen = frameLen
	for off := 0; off < len(sig.Samples); off += frameLen {
		end := off + frameLen
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		fd := evidence.NewDigester()
		for _, v := range sig.Samples[off:end] {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			fd.Write(scratch[:])
		}
		ad.FrameDigests = append(ad.FrameDigests, fd.Sum())
	}
	return ad
}

// DecisionEvidence projects a decision into its portable evidence-pack
// record: stage names become metric names and every score carries its
// IEEE-754 bit pattern so replay comparison is bit-exact.
func DecisionEvidence(d Decision) evidence.DecisionRecord {
	rec := evidence.DecisionRecord{
		TraceID:   d.TraceID,
		Accepted:  d.Accepted,
		ElapsedUS: d.Elapsed.Microseconds(),
	}
	if !d.Accepted && d.FailedStage != 0 {
		rec.FailedStage = d.FailedStage.MetricName()
	}
	for _, st := range d.Stages {
		rec.Stages = append(rec.Stages, evidence.StageOutcome{
			Stage:     st.Stage.MetricName(),
			Pass:      st.Pass,
			Score:     st.Score,
			ScoreBits: evidence.FloatBits(st.Score),
			Detail:    st.Detail,
			ElapsedUS: st.Elapsed.Microseconds(),
		})
	}
	return rec
}

// writeString appends a length-prefixed string to the digest stream.
func writeString(d *evidence.Digester, s string) {
	writeUint(d, uint64(len(s)))
	d.Write([]byte(s))
}

// writeUint appends a little-endian uint64 to the digest stream.
func writeUint(d *evidence.Digester, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(b[:])
}

// writeFloat appends a float64's IEEE-754 bits to the digest stream.
func writeFloat(d *evidence.Digester, v float64) {
	writeUint(d, math.Float64bits(v))
}

// writeTrace appends a sensor trace (name, then each sample's time and
// vector) to the digest stream.
func writeTrace(d *evidence.Digester, tr *sensors.Trace) {
	if tr == nil {
		writeUint(d, 0)
		return
	}
	writeString(d, tr.Name)
	writeUint(d, uint64(len(tr.Samples)))
	for _, smp := range tr.Samples {
		writeFloat(d, smp.T)
		writeFloat(d, smp.V.X)
		writeFloat(d, smp.V.Y)
		writeFloat(d, smp.V.Z)
	}
}

// writeSignal appends an audio signal (rate, then raw sample bits) to the
// digest stream.
func writeSignal(d *evidence.Digester, sig *audio.Signal) {
	if sig == nil {
		writeUint(d, 0)
		return
	}
	writeFloat(d, sig.Rate)
	writeUint(d, uint64(len(sig.Samples)))
	var b [8]byte
	for _, v := range sig.Samples {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.Write(b[:])
	}
}
