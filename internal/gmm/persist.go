package gmm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"voiceguard/internal/evidence"
)

// Model persistence: trained UBMs and ISV session models are expensive to
// build, so deployments save them once and load them at startup. The
// encoding is versioned JSON.

// gmmDTO is the serialized form of a GMM.
type gmmDTO struct {
	Version int         `json:"version"`
	Weights []float64   `json:"weights"`
	Means   [][]float64 `json:"means"`
	Vars    [][]float64 `json:"vars"`
}

const persistVersion = 1

// Save writes the model to w.
func (g *GMM) Save(w io.Writer) error {
	dto := gmmDTO{
		Version: persistVersion,
		Weights: g.Weights,
		Means:   g.Means,
		Vars:    g.Vars,
	}
	if err := json.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("gmm: saving model: %w", err)
	}
	return nil
}

// ModelDigest returns the canonical content digest of a GMM — the digest
// of its persisted form, identical to the "asv/user/<name>" digests an
// evidence pack records for the same model.
func ModelDigest(g *GMM) (string, error) {
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		return "", fmt.Errorf("gmm: digesting model: %w", err)
	}
	return evidence.Digest(buf.Bytes()), nil
}

// LoadGMM reads a model written by Save and validates its shape.
func LoadGMM(r io.Reader) (*GMM, error) {
	var dto gmmDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("gmm: loading model: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("gmm: unsupported model version %d", dto.Version)
	}
	g := &GMM{Weights: dto.Weights, Means: dto.Means, Vars: dto.Vars}
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	g.refreshNorm()
	return g, nil
}

// validateShape checks internal consistency after deserialization.
func (g *GMM) validateShape() error {
	k := len(g.Weights)
	if k == 0 || len(g.Means) != k || len(g.Vars) != k {
		return fmt.Errorf("%w: inconsistent component counts (%d weights, %d means, %d vars)",
			ErrBadTrainingData, k, len(g.Means), len(g.Vars))
	}
	dim := len(g.Means[0])
	if dim == 0 {
		return fmt.Errorf("%w: zero-dimensional means", ErrBadTrainingData)
	}
	var wsum float64
	for c := 0; c < k; c++ {
		if len(g.Means[c]) != dim || len(g.Vars[c]) != dim {
			return fmt.Errorf("%w: component %d has inconsistent dimensions", ErrBadTrainingData, c)
		}
		if g.Weights[c] < 0 {
			return fmt.Errorf("%w: negative weight %v", ErrBadTrainingData, g.Weights[c])
		}
		wsum += g.Weights[c]
		for d := 0; d < dim; d++ {
			if g.Vars[c][d] <= 0 {
				return fmt.Errorf("%w: non-positive variance at [%d][%d]", ErrBadTrainingData, c, d)
			}
		}
	}
	if wsum < 0.99 || wsum > 1.01 {
		return fmt.Errorf("%w: weights sum to %v", ErrBadTrainingData, wsum)
	}
	return nil
}

// isvDTO is the serialized form of an ISV model.
type isvDTO struct {
	Version   int         `json:"version"`
	UBM       gmmDTO      `json:"ubm"`
	U         [][]float64 `json:"u"`
	Relevance float64     `json:"relevance"`
}

// Save writes the ISV model (including its UBM) to w.
func (m *ISV) Save(w io.Writer) error {
	dto := isvDTO{
		Version: persistVersion,
		UBM: gmmDTO{
			Version: persistVersion,
			Weights: m.ubm.Weights,
			Means:   m.ubm.Means,
			Vars:    m.ubm.Vars,
		},
		U:         m.u,
		Relevance: m.relevance,
	}
	if err := json.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("gmm: saving ISV model: %w", err)
	}
	return nil
}

// LoadISV reads an ISV model written by Save.
func LoadISV(r io.Reader) (*ISV, error) {
	var dto isvDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("gmm: loading ISV model: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("gmm: unsupported ISV version %d", dto.Version)
	}
	ubm := &GMM{Weights: dto.UBM.Weights, Means: dto.UBM.Means, Vars: dto.UBM.Vars}
	if err := ubm.validateShape(); err != nil {
		return nil, err
	}
	ubm.refreshNorm()
	if dto.Relevance <= 0 {
		return nil, fmt.Errorf("gmm: ISV relevance %v must be positive", dto.Relevance)
	}
	svDim := ubm.NumComponents() * ubm.Dim()
	for i, u := range dto.U {
		if len(u) != svDim {
			return nil, fmt.Errorf("gmm: ISV direction %d has dim %d, want %d", i, len(u), svDim)
		}
	}
	return &ISV{ubm: ubm, u: dto.U, relevance: dto.Relevance}, nil
}

// UBM exposes the underlying background model (e.g. for persistence of a
// wrapping verifier).
func (m *ISV) UBM() *GMM { return m.ubm }

// Ref exposes the enrolled reference supervector for persistence.
func (s *ISVSpeaker) Ref() []float64 {
	return append([]float64(nil), s.ref...)
}

// SpeakerFromRef reconstructs an enrolled speaker from a persisted
// reference supervector.
func (m *ISV) SpeakerFromRef(ref []float64) (*ISVSpeaker, error) {
	if len(ref) != m.SupervectorDim() {
		return nil, fmt.Errorf("gmm: reference dim %d, want %d", len(ref), m.SupervectorDim())
	}
	return &ISVSpeaker{model: m, ref: append([]float64(nil), ref...)}, nil
}
