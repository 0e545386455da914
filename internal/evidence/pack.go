package evidence

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"voiceguard/internal/telemetry"
)

// SchemaVersion is the evidence-pack schema this build reads and writes.
const SchemaVersion = 1

// Member names inside a pack zip.
const (
	ManifestMember  = "manifest.json"
	DecisionsMember = "decisions.jsonl"
	SpansMember     = "spans.jsonl"
	SessionMember   = "session.json"
	ModelsMember    = "models.json"
)

// Redaction modes for session envelopes.
const (
	// RedactNone embeds the raw session request, audio included.
	RedactNone = "none"
	// RedactDigests strips raw audio from the embedded request and
	// carries whole-signal and per-frame content digests instead, so a
	// pack can prove what was heard without containing the voice.
	RedactDigests = "digests"
)

// BuildInfo records the toolchain and module revision that produced a
// pack, so a replayer can tell when a divergence is a build skew rather
// than a data problem.
type BuildInfo struct {
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
	// Module is the main module path.
	Module string `json:"module,omitempty"`
	// Revision is the VCS revision baked into the binary, when known.
	Revision string `json:"revision,omitempty"`
}

// CurrentBuildInfo reports the running binary's build identity.
func CurrentBuildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Module = info.Main.Path
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				bi.Revision = s.Value
			}
		}
	}
	return bi
}

// Member is one manifest entry: a named pack member and its content
// digest.
type Member struct {
	// Name is the member's path inside the zip.
	Name string `json:"name"`
	// Size is the member's byte length.
	Size int64 `json:"size"`
	// Digest is the member's canonical content digest.
	Digest string `json:"digest"`
}

// Manifest is the pack's integrity root: it lists every member with its
// digest and commits to all of them through a digest chain, so verifying
// the chain plus each member digest proves nothing was added, removed,
// renamed, reordered or altered.
type Manifest struct {
	// SchemaVersion is the pack schema the members follow.
	SchemaVersion int `json:"schema_version"`
	// CreatedAt is the pack build time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Build identifies the producing binary.
	Build BuildInfo `json:"build"`
	// Members lists every member except the manifest itself, sorted by
	// name.
	Members []Member `json:"members"`
	// RootDigest is the final link of the member digest chain.
	RootDigest string `json:"root_digest"`
}

// StageOutcome is one cascade stage's result inside a pack decision.
type StageOutcome struct {
	// Stage is the stage's metric name ("distance", "soundfield",
	// "loudspeaker", "identity").
	Stage string `json:"stage"`
	// Pass is the stage verdict.
	Pass bool `json:"pass"`
	// Score is the stage score, for humans; ScoreBits is authoritative.
	Score float64 `json:"score"`
	// ScoreBits is the score's IEEE-754 bit pattern (FloatBits), the
	// form replay compares bit-for-bit.
	ScoreBits string `json:"score_bits"`
	// Detail is the stage's human-readable explanation.
	Detail string `json:"detail,omitempty"`
	// ElapsedUS is the stage latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// DecisionRecord is one verdict inside decisions.jsonl.
type DecisionRecord struct {
	// TraceID identifies the attempt; it keys the decision to its span
	// tree in spans.jsonl and its session envelope in session.json.
	TraceID string `json:"trace_id"`
	// Accepted is the cascade verdict.
	Accepted bool `json:"accepted"`
	// FailedStage is the metric name of the first failing stage ("" when
	// accepted).
	FailedStage string `json:"failed_stage,omitempty"`
	// ElapsedUS is the total pipeline latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Stages are the per-stage outcomes in cascade order, truncated at
	// the first failure exactly as the cascade decided them.
	Stages []StageOutcome `json:"stages"`
}

// AudioDigest carries the content digests standing in for one redacted
// audio channel.
type AudioDigest struct {
	// Channel names the signal: "voice" or "capture".
	Channel string `json:"channel"`
	// Digest is the whole-signal content digest over the raw float64
	// sample bits.
	Digest string `json:"digest"`
	// Samples is the signal length in samples.
	Samples int `json:"samples"`
	// FrameLen is the per-frame digest window in samples.
	FrameLen int `json:"frame_len,omitempty"`
	// FrameDigests are content digests of consecutive FrameLen-sample
	// windows (last window may be short), letting an auditor localize
	// which part of a signal differs without the raw audio.
	FrameDigests []string `json:"frame_digests,omitempty"`
}

// SessionEnvelope wraps one decision's session inputs.
type SessionEnvelope struct {
	// TraceID keys the envelope to its decision.
	TraceID string `json:"trace_id"`
	// Redaction is the envelope's redaction mode (RedactNone or
	// RedactDigests).
	Redaction string `json:"redaction"`
	// SessionDigest is the content digest of the decoded session — the
	// exact bytes the cascade consumed — and survives redaction.
	SessionDigest string `json:"session_digest,omitempty"`
	// Request is the protocol.VerifyRequest JSON; under RedactDigests
	// its audio fields are emptied.
	Request json.RawMessage `json:"request"`
	// Audio carries the digests replacing raw audio under RedactDigests.
	Audio []AudioDigest `json:"audio,omitempty"`
}

// SessionsDoc is the session.json member.
type SessionsDoc struct {
	// Sessions holds one envelope per packed decision, in decision
	// order.
	Sessions []SessionEnvelope `json:"sessions"`
}

// EnrollProvenance is the recipe for one enrolled user in a
// deterministically grown system.
type EnrollProvenance struct {
	// User is the enrolled identity.
	User string `json:"user"`
	// Seed seeds the user's voice profile and synthesizer.
	Seed int64 `json:"seed"`
	// Passphrase is the digit string spoken at enrollment.
	Passphrase string `json:"passphrase"`
	// Utterances is how many enrollment utterances were recorded.
	Utterances int `json:"utterances"`
}

// ASVProvenance is the recipe for the trained speaker-verification
// backend.
type ASVProvenance struct {
	// Seed seeds the background roster and training.
	Seed int64 `json:"seed"`
	// Roster is the background speaker count.
	Roster int `json:"roster"`
	// Sessions is the per-speaker background session count.
	Sessions int `json:"sessions"`
	// Utterances is the per-session utterance count.
	Utterances int `json:"utterances"`
	// Digits is the per-utterance digit count.
	Digits int `json:"digits"`
	// Enroll lists the enrolled users in enrollment order.
	Enroll []EnrollProvenance `json:"enroll,omitempty"`
	// FastTopC is decode-only. A positive value marks a pack whose
	// producer scored stage 4 through a top-C shortlist of this width.
	// This build has only the exact scorer, so rebuild refuses such a
	// recipe; the field stays so those packs still decode and the
	// refusal can name it. Nothing in this build writes it.
	FastTopC int `json:"fast_top_c,omitempty"`
}

// Provenance records how the producing system was constructed, in enough
// detail for `pack replay` to rebuild a bit-identical one.
type Provenance struct {
	// Generator names the producer: "demo", "server" or "test".
	Generator string `json:"generator"`
	// FieldSeed seeds the sound-field SVM training.
	FieldSeed int64 `json:"field_seed"`
	// ASV is the speaker-verification recipe; nil when the identity
	// stage was disabled.
	ASV *ASVProvenance `json:"asv,omitempty"`
}

// ModelsDoc is the models.json member: the content digests of every
// model the cascade consulted, plus the recipe to rebuild them.
type ModelsDoc struct {
	// Digests maps model key ("asv/ubm", "soundfield/band/90", ...) to
	// canonical content digest.
	Digests map[string]string `json:"digests"`
	// Provenance is the system construction recipe, when known.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Pack is a parsed evidence pack.
type Pack struct {
	// Manifest is the parsed manifest.json.
	Manifest Manifest
	// Decisions are the parsed decisions.jsonl records, in file order.
	Decisions []DecisionRecord
	// Traces are the parsed spans.jsonl span trees, in file order.
	Traces []*telemetry.TraceRecord
	// Sessions is the parsed session.json.
	Sessions SessionsDoc
	// Models is the parsed models.json.
	Models ModelsDoc
	// Raw holds every member's raw bytes by name, manifest included —
	// what Verify re-hashes.
	Raw map[string][]byte
}

// Decision returns the pack's decision for the given trace ID and
// whether it exists.
func (p *Pack) Decision(traceID string) (DecisionRecord, bool) {
	for _, d := range p.Decisions {
		if d.TraceID == traceID {
			return d, true
		}
	}
	return DecisionRecord{}, false
}

// Trace returns the pack's span tree for the given trace ID, or nil.
func (p *Pack) Trace(traceID string) *telemetry.TraceRecord {
	for _, t := range p.Traces {
		if t.TraceID == traceID {
			return t
		}
	}
	return nil
}

// Session returns the pack's session envelope for the given trace ID and
// whether it exists.
func (p *Pack) Session(traceID string) (SessionEnvelope, bool) {
	for _, s := range p.Sessions.Sessions {
		if s.TraceID == traceID {
			return s, true
		}
	}
	return SessionEnvelope{}, false
}

// Builder accumulates decisions into a pack.
type Builder struct {
	decisions []DecisionRecord
	traces    []*telemetry.TraceRecord
	sessions  []SessionEnvelope
	models    ModelsDoc
	now       time.Time
}

// NewBuilder returns an empty pack builder stamped with the given build
// time.
func NewBuilder(now time.Time) *Builder {
	return &Builder{now: now.UTC(), models: ModelsDoc{Digests: map[string]string{}}}
}

// AddDecision appends one decision with its span tree and session
// envelope. Trace may be nil when the recorder evicted it; the envelope
// may be zero when the session was not retained.
func (b *Builder) AddDecision(d DecisionRecord, trace *telemetry.TraceRecord, env SessionEnvelope) {
	b.decisions = append(b.decisions, d)
	if trace != nil {
		b.traces = append(b.traces, trace)
	}
	if env.TraceID != "" {
		b.sessions = append(b.sessions, env)
	}
}

// SetModels records the model digest set and construction provenance.
func (b *Builder) SetModels(digests map[string]string, prov *Provenance) {
	b.models = ModelsDoc{Digests: digests, Provenance: prov}
	if b.models.Digests == nil {
		b.models.Digests = map[string]string{}
	}
}

// Members renders the pack members (manifest excluded) as raw bytes.
func (b *Builder) Members() (map[string][]byte, error) {
	var decBuf bytes.Buffer
	enc := json.NewEncoder(&decBuf)
	for _, d := range b.decisions {
		if err := enc.Encode(d); err != nil {
			return nil, fmt.Errorf("evidence: encoding decision %s: %w", d.TraceID, err)
		}
	}
	var spanBuf bytes.Buffer
	if err := telemetry.WriteJSONL(&spanBuf, b.traces); err != nil {
		return nil, fmt.Errorf("evidence: encoding spans: %w", err)
	}
	sessRaw, err := json.MarshalIndent(SessionsDoc{Sessions: b.sessions}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("evidence: encoding sessions: %w", err)
	}
	modelsRaw, err := json.MarshalIndent(b.models, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("evidence: encoding models: %w", err)
	}
	return map[string][]byte{
		DecisionsMember: decBuf.Bytes(),
		SpansMember:     spanBuf.Bytes(),
		SessionMember:   append(sessRaw, '\n'),
		ModelsMember:    append(modelsRaw, '\n'),
	}, nil
}

// BuildManifest digests the members and chains them into a manifest.
// Members are chained sorted by name so the root digest is independent of
// map iteration order.
func BuildManifest(members map[string][]byte, now time.Time) Manifest {
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	m := Manifest{
		SchemaVersion: SchemaVersion,
		CreatedAt:     now.UTC(),
		Build:         CurrentBuildInfo(),
	}
	chain := ChainSeed()
	for _, name := range names {
		data := members[name]
		d := Digest(data)
		m.Members = append(m.Members, Member{Name: name, Size: int64(len(data)), Digest: d})
		chain = ChainDigest(chain, name, d)
	}
	m.RootDigest = chain
	return m
}

// WriteZip assembles the builder's members into an evidence-pack zip.
func (b *Builder) WriteZip(w io.Writer) error {
	members, err := b.Members()
	if err != nil {
		return err
	}
	manifest := BuildManifest(members, b.now)
	return WriteZipMembers(w, manifest, members)
}

// WriteZipMembers writes a pack zip from an explicit manifest and member
// set, without recomputing digests — the low-level form tamper tests use
// to produce packs whose members disagree with their manifest. Entries
// carry the manifest's timestamp so identical content yields identical
// zip bytes.
func WriteZipMembers(w io.Writer, manifest Manifest, members map[string][]byte) error {
	manifestRaw, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("evidence: encoding manifest: %w", err)
	}
	manifestRaw = append(manifestRaw, '\n')

	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)

	zw := zip.NewWriter(w)
	write := func(name string, data []byte) error {
		fw, err := zw.CreateHeader(&zip.FileHeader{
			Name:     name,
			Method:   zip.Deflate,
			Modified: manifest.CreatedAt,
		})
		if err != nil {
			return fmt.Errorf("evidence: creating zip member %s: %w", name, err)
		}
		if _, err := fw.Write(data); err != nil {
			return fmt.Errorf("evidence: writing zip member %s: %w", name, err)
		}
		return nil
	}
	if err := write(ManifestMember, manifestRaw); err != nil {
		return err
	}
	for _, name := range names {
		if err := write(name, members[name]); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("evidence: closing zip: %w", err)
	}
	return nil
}

// ReadZip parses an evidence pack from a zip. Unknown members are kept in
// Raw (and covered by manifest verification) but not parsed.
func ReadZip(r io.ReaderAt, size int64) (*Pack, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, fmt.Errorf("evidence: opening pack zip: %w", err)
	}
	p := &Pack{Raw: map[string][]byte{}}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("evidence: opening member %s: %w", f.Name, err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("evidence: reading member %s: %w", f.Name, err)
		}
		p.Raw[f.Name] = data
	}

	manifestRaw, ok := p.Raw[ManifestMember]
	if !ok {
		return nil, fmt.Errorf("evidence: pack has no %s", ManifestMember)
	}
	if err := json.Unmarshal(manifestRaw, &p.Manifest); err != nil {
		return nil, fmt.Errorf("evidence: parsing %s: %w", ManifestMember, err)
	}

	if raw, ok := p.Raw[DecisionsMember]; ok {
		if err := decodeJSONL(raw, &p.Decisions); err != nil {
			return nil, fmt.Errorf("evidence: parsing %s: %w", DecisionsMember, err)
		}
	}
	if raw, ok := p.Raw[SpansMember]; ok {
		traces, err := telemetry.ReadJSONL(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("evidence: parsing %s: %w", SpansMember, err)
		}
		p.Traces = traces
	}
	if raw, ok := p.Raw[SessionMember]; ok {
		if err := json.Unmarshal(raw, &p.Sessions); err != nil {
			return nil, fmt.Errorf("evidence: parsing %s: %w", SessionMember, err)
		}
	}
	if raw, ok := p.Raw[ModelsMember]; ok {
		if err := json.Unmarshal(raw, &p.Models); err != nil {
			return nil, fmt.Errorf("evidence: parsing %s: %w", ModelsMember, err)
		}
	}
	return p, nil
}

// ReadBytes parses an evidence pack from in-memory zip bytes.
func ReadBytes(data []byte) (*Pack, error) {
	return ReadZip(bytes.NewReader(data), int64(len(data)))
}

// ReadFile parses an evidence pack from a zip file on disk.
func ReadFile(path string) (*Pack, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("evidence: reading pack: %w", err)
	}
	return ReadBytes(data)
}

// decodeJSONL parses newline-delimited JSON into *out (a pointer to a
// slice of DecisionRecord).
func decodeJSONL(raw []byte, out *[]DecisionRecord) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var d DecisionRecord
		if err := dec.Decode(&d); err != nil {
			return err
		}
		*out = append(*out, d)
	}
	return nil
}
