package server

// Evidence-pack export: the server retains the decoded request and
// decision of recent /verify attempts (only when evidence export is
// enabled) and serves them as self-contained digest-chained packs —
// GET /debug/evidence/{trace_id} downloads one, and -evidence-dir spools
// a pack to disk for every rejected decision so production incidents
// survive the process. The hot path pays one nil test when evidence
// export is disabled.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
	"voiceguard/internal/protocol"
)

// EvidenceRoute is the URL prefix of the evidence-pack download
// endpoint; the trace ID follows it. Optional query parameter
// redact=digests strips raw audio from the embedded session, leaving
// content digests (the pack then verifies but cannot be replayed).
const EvidenceRoute = "/debug/evidence/"

// DefEvidenceRetention is the session retention ring capacity: evidence
// packs need the raw request, which is ~2 MB a session, so the ring is
// much smaller than the flight recorder's.
const DefEvidenceRetention = 32

// evidenceEntry is one retained verification: everything a pack needs
// beyond the flight recorder's span tree.
type evidenceEntry struct {
	seq      uint64
	traceID  string
	req      *protocol.VerifyRequest
	decision core.Decision
}

// evidenceRetainer is a small mutex-guarded ring of recent
// verifications. It sits off the hot path: one append per decision, only
// when evidence export is enabled.
type evidenceRetainer struct {
	mu      sync.Mutex
	entries []evidenceEntry
	next    int
	seq     uint64
}

func newEvidenceRetainer() *evidenceRetainer {
	return &evidenceRetainer{entries: make([]evidenceEntry, 0, DefEvidenceRetention)}
}

func (er *evidenceRetainer) add(e evidenceEntry) {
	er.mu.Lock()
	defer er.mu.Unlock()
	er.seq++
	e.seq = er.seq
	if len(er.entries) < cap(er.entries) {
		er.entries = append(er.entries, e)
		return
	}
	er.entries[er.next] = e
	er.next = (er.next + 1) % cap(er.entries)
}

// find returns the retained entry for a trace ID, preferring the most
// recently added when a client reused an ID.
func (er *evidenceRetainer) find(traceID string) (evidenceEntry, bool) {
	er.mu.Lock()
	defer er.mu.Unlock()
	best := -1
	for i, e := range er.entries {
		if e.traceID == traceID && (best == -1 || e.seq > er.entries[best].seq) {
			best = i
		}
	}
	if best == -1 {
		return evidenceEntry{}, false
	}
	return er.entries[best], true
}

// WithEvidenceEndpoint mounts GET /debug/evidence/{trace_id}, serving a
// decision's evidence pack as a zip. Off by default and gated exactly
// like WithDecisionEndpoints: packs carry biometric verdicts, per-stage
// evidence and (unless ?redact=digests) the raw session audio, which
// must not be reachable by anyone who can hit the serving listener
// unless the operator opted in. Enabling it turns on session retention
// for the last DefEvidenceRetention verifications.
func WithEvidenceEndpoint() Option {
	return func(s *Server) { s.evidenceDebug = true }
}

// WithEvidenceDir spools an evidence pack (pack-<trace_id>.zip) into dir
// for every rejected decision, asynchronously off the request path —
// the -evidence-dir flag. Spooled packs embed the raw session so they
// replay offline; point the flag at a directory with appropriate access
// controls.
func WithEvidenceDir(dir string) Option {
	return func(s *Server) { s.evidenceDir = dir }
}

// WithEvidenceProvenance embeds the system construction recipe in every
// exported pack, enabling `voiceguard-trace pack replay` to rebuild the
// producing system from the pack alone.
func WithEvidenceProvenance(p evidence.Provenance) Option {
	return func(s *Server) { s.evidenceProv = &p }
}

// evidenceEnabled reports whether any evidence-export surface is on.
func (s *Server) evidenceEnabled() bool { return s.retainer != nil }

// retainEvidence records a finished verification for evidence export and
// spools rejected decisions when configured. Called from handleVerify
// only when evidence export is enabled.
func (s *Server) retainEvidence(traceID string, req *protocol.VerifyRequest, d core.Decision) {
	s.retainer.add(evidenceEntry{traceID: traceID, req: req, decision: d})
	if s.evidenceDir == "" || d.Accepted {
		return
	}
	s.spoolWG.Add(1)
	go func() {
		defer s.spoolWG.Done()
		if err := s.spoolPack(traceID); err != nil {
			s.logger.Error("spooling evidence pack", "err", err, "trace_id", traceID)
		}
	}()
}

// spoolPack writes one retained decision's pack into the evidence dir.
func (s *Server) spoolPack(traceID string) error {
	data, err := s.buildPack(traceID, evidence.RedactNone)
	if err != nil {
		return err
	}
	path := filepath.Join(s.evidenceDir, "pack-"+sanitizeTraceID(traceID)+".zip")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("server: writing evidence pack: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("server: placing evidence pack: %w", err)
	}
	s.logger.Info("spooled evidence pack", "trace_id", traceID, "path", path, "bytes", len(data))
	return nil
}

// sanitizeTraceID keeps spool filenames flat: anything outside the safe
// set becomes '_' so a hostile X-Request-ID cannot traverse paths.
func sanitizeTraceID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// buildPack assembles one retained decision's evidence pack.
func (s *Server) buildPack(traceID, redact string) ([]byte, error) {
	entry, ok := s.retainer.find(traceID)
	if !ok {
		return nil, errEvidenceNotRetained
	}
	b := evidence.NewBuilder(time.Now())
	env, err := protocol.SessionEnvelopeFromRequest(traceID, entry.req, redact)
	if err != nil {
		return nil, fmt.Errorf("server: building session envelope: %w", err)
	}
	b.AddDecision(core.DecisionEvidence(entry.decision), s.recorder.Find(traceID), env)
	digests, err := s.system.ModelDigests()
	if err != nil {
		return nil, fmt.Errorf("server: digesting models: %w", err)
	}
	b.SetModels(digests, s.evidenceProv)
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// errEvidenceNotRetained distinguishes "unknown trace" from build
// failures so the handler can answer 404 rather than 500.
var errEvidenceNotRetained = fmt.Errorf("server: decision not retained (evicted or never recorded)")

// handleEvidence serves one decision's evidence pack as a zip download.
func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, EvidenceRoute)
	if id == "" {
		http.Error(w, "trace ID required", http.StatusBadRequest)
		return
	}
	redact := evidence.RedactNone
	switch mode := r.URL.Query().Get("redact"); mode {
	case "", evidence.RedactNone:
	case evidence.RedactDigests:
		redact = evidence.RedactDigests
	default:
		http.Error(w, fmt.Sprintf("unknown redact mode %q (want %q or %q)",
			mode, evidence.RedactNone, evidence.RedactDigests), http.StatusBadRequest)
		return
	}
	data, err := s.buildPack(id, redact)
	if err != nil {
		if err == errEvidenceNotRetained {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.logger.Error("building evidence pack", "err", err, "trace_id", id)
		http.Error(w, "building evidence pack failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", "pack-"+sanitizeTraceID(id)+".zip"))
	if _, err := w.Write(data); err != nil {
		s.logger.Error("writing evidence pack", "err", err, "trace_id", id)
	}
}
