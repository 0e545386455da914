package server

// Decision flight-recorder endpoints: /debug/decisions lists the retained
// decision traces, /debug/decisions.jsonl exports them as JSONL for
// cmd/voiceguard-trace, and /debug/trace/{id} returns one full
// evidence-carrying span tree. All three read the lock-free ring without
// blocking the serving path.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"voiceguard/internal/telemetry"
)

// TraceRoute is the URL prefix of the single-trace endpoint; the trace ID
// follows it.
const TraceRoute = "/debug/trace/"

// DecisionsRoute lists retained decision summaries.
const DecisionsRoute = "/debug/decisions"

// DecisionsJSONLRoute exports retained decision traces as JSONL.
const DecisionsJSONLRoute = "/debug/decisions.jsonl"

// parseLimit reads the optional ?limit=N query parameter bounding how
// many of the newest retained traces a listing returns. Absent or
// empty means unbounded (0); anything non-numeric or negative is a
// client error.
func parseLimit(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("server: bad limit %q: want a non-negative integer", raw)
	}
	return n, nil
}

// handleDecisions serves the retained decision summaries, newest first.
// ?limit=N keeps only the newest N.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	limit, err := parseLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	records := s.recorder.SnapshotRecent(limit)
	summaries := make([]any, 0, len(records))
	for i := len(records) - 1; i >= 0; i-- {
		summaries = append(summaries, records[i].Summary())
	}
	s.writeJSON(w, "", http.StatusOK, summaries)
}

// handleDecisionsJSONL streams retained traces oldest-first, one JSON
// record per line. ?limit=N keeps only the newest N (still emitted
// oldest-first, so the dump stays chronologically ordered for
// voiceguard-trace).
func (s *Server) handleDecisionsJSONL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	limit, err := parseLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := telemetry.WriteJSONL(w, s.recorder.SnapshotRecent(limit)); err != nil {
		s.logger.Error("writing decision JSONL", "err", err)
	}
}

// handleTrace serves one retained trace's full span tree by ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, TraceRoute)
	if id == "" {
		http.Error(w, "trace ID required", http.StatusBadRequest)
		return
	}
	rec := s.recorder.Find(id)
	if rec == nil {
		http.Error(w, "trace not retained (evicted or never recorded)", http.StatusNotFound)
		return
	}
	s.writeJSON(w, id, http.StatusOK, rec)
}
