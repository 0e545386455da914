package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"voiceguard/internal/features"
	"voiceguard/internal/gmm"
	"voiceguard/internal/svm"
)

// Verifier persistence: a deployment trains the ASV back-end and the
// sound-field SVMs once, saves them, and loads them at server startup.

const persistVersion = 1

// speakerVerifierDTO is the serialized form of a SpeakerVerifier.
type speakerVerifierDTO struct {
	Version   int                        `json:"version"`
	Backend   Backend                    `json:"backend"`
	MFCC      features.MFCCConfig        `json:"mfcc"`
	Relevance float64                    `json:"relevance"` // unit: dimensionless
	Threshold float64                    `json:"threshold"` // unit: score
	UBM       json.RawMessage            `json:"ubm"`
	ISV       json.RawMessage            `json:"isv,omitempty"`
	Users     map[string]json.RawMessage `json:"users,omitempty"`
	ISVUsers  map[string][]float64       `json:"isv_users,omitempty"`
}

// Save writes the verifier (back-end models and all enrolled users) to w.
func (v *SpeakerVerifier) Save(w io.Writer) error {
	dto := speakerVerifierDTO{
		Version:   persistVersion,
		Backend:   v.backend,
		MFCC:      v.mfcc,
		Relevance: v.relevance,
		Threshold: v.Threshold,
		Users:     make(map[string]json.RawMessage),
		ISVUsers:  make(map[string][]float64),
	}
	var buf bytes.Buffer
	if err := v.ubm.Save(&buf); err != nil {
		return fmt.Errorf("core: saving verifier UBM: %w", err)
	}
	dto.UBM = append([]byte(nil), buf.Bytes()...)
	if v.isv != nil {
		buf.Reset()
		if err := v.isv.Save(&buf); err != nil {
			return fmt.Errorf("core: saving verifier ISV: %w", err)
		}
		dto.ISV = append([]byte(nil), buf.Bytes()...)
	}
	v.usersMu.RLock()
	defer v.usersMu.RUnlock()
	for name, ver := range v.users {
		buf.Reset()
		if err := ver.Speaker.Save(&buf); err != nil {
			return fmt.Errorf("core: saving speaker model %q: %w", name, err)
		}
		dto.Users[name] = append([]byte(nil), buf.Bytes()...)
	}
	for name, spk := range v.isvUsers {
		dto.ISVUsers[name] = spk.Ref()
	}
	if err := json.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("core: saving verifier: %w", err)
	}
	return nil
}

// LoadSpeakerVerifier reads a verifier written by Save.
func LoadSpeakerVerifier(r io.Reader) (*SpeakerVerifier, error) {
	var dto speakerVerifierDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: loading verifier: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported verifier version %d", dto.Version)
	}
	if dto.Backend != BackendGMMUBM && dto.Backend != BackendISV {
		return nil, fmt.Errorf("core: unknown backend %d", dto.Backend)
	}
	if dto.Relevance <= 0 {
		return nil, fmt.Errorf("core: relevance %v must be positive", dto.Relevance)
	}
	ubm, err := gmm.LoadGMM(bytes.NewReader(dto.UBM))
	if err != nil {
		return nil, fmt.Errorf("core: loading verifier UBM: %w", err)
	}
	v := &SpeakerVerifier{
		backend:   dto.Backend,
		mfcc:      dto.MFCC,
		ubm:       ubm,
		relevance: dto.Relevance,
		Threshold: dto.Threshold,
		users:     make(map[string]*gmm.Verifier),
		isvUsers:  make(map[string]*gmm.ISVSpeaker),
	}
	if len(dto.ISV) > 0 {
		isv, err := gmm.LoadISV(bytes.NewReader(dto.ISV))
		if err != nil {
			return nil, fmt.Errorf("core: loading verifier ISV: %w", err)
		}
		v.isv = isv
	}
	if dto.Backend == BackendISV && v.isv == nil {
		return nil, fmt.Errorf("core: ISV backend without ISV model")
	}
	for name, raw := range dto.Users {
		spk, err := gmm.LoadGMM(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: loading speaker model %q: %w", name, err)
		}
		v.users[name] = &gmm.Verifier{UBM: ubm, Speaker: spk}
	}
	for name, ref := range dto.ISVUsers {
		if v.isv == nil {
			return nil, fmt.Errorf("core: ISV user %q without ISV model", name)
		}
		spk, err := v.isv.SpeakerFromRef(ref)
		if err != nil {
			return nil, fmt.Errorf("core: loading ISV user %q: %w", name, err)
		}
		v.isvUsers[name] = spk
	}
	return v, nil
}

// soundFieldDTO is the serialized form of a SoundFieldVerifier.
type soundFieldDTO struct {
	Version int                     `json:"version"`
	Models  map[int]json.RawMessage `json:"models"`
}

// Save writes the trained band models to w.
func (v *SoundFieldVerifier) Save(w io.Writer) error {
	dto := soundFieldDTO{Version: persistVersion, Models: make(map[int]json.RawMessage)}
	var buf bytes.Buffer
	for k, m := range v.models {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			return fmt.Errorf("core: saving sound-field band %d: %w", k, err)
		}
		dto.Models[k] = append([]byte(nil), buf.Bytes()...)
	}
	if err := json.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("core: saving sound-field verifier: %w", err)
	}
	return nil
}

// LoadSoundFieldVerifier reads a verifier written by Save.
func LoadSoundFieldVerifier(r io.Reader) (*SoundFieldVerifier, error) {
	var dto soundFieldDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: loading sound-field verifier: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported sound-field version %d", dto.Version)
	}
	if len(dto.Models) == 0 {
		return nil, fmt.Errorf("core: sound-field verifier has no band models")
	}
	v := &SoundFieldVerifier{models: make(map[int]*svm.Model, len(dto.Models))}
	for k, raw := range dto.Models {
		m, err := svm.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: loading sound-field band %d: %w", k, err)
		}
		v.models[k] = m
	}
	return v, nil
}
