// Package server implements the verification backend of the paper's
// prototype (§V): an HTTP server that accepts gzip-compressed session
// uploads on /verify, runs the VoiceGuard pipeline, and returns the
// decision. The paper uses Tornado for parallel request handling; net/http
// provides the same per-request concurrency here. Every request is traced
// (X-Request-ID), timed per pipeline stage, and counted in a telemetry
// registry exposed on /metrics in Prometheus text format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
	"voiceguard/internal/protocol"
	"voiceguard/internal/telemetry"
)

// Metric names exported on /metrics.
const (
	MetricStageLatency     = "voiceguard_stage_latency_seconds"
	MetricPipelineLatency  = "voiceguard_pipeline_latency_seconds"
	MetricVerifyTotal      = "voiceguard_verify_total"
	MetricVerifyInflight   = "voiceguard_verify_inflight"
	MetricVoiceprintErrors = "voiceguard_voiceprint_errors_total"
	MetricHTTPRequests     = "voiceguard_http_requests_total"
	MetricHTTPDuration     = "voiceguard_http_request_duration_seconds"
	MetricHTTPInflight     = "voiceguard_http_inflight_requests"
	MetricRequestTooLarge  = "voiceguard_request_too_large_total"
)

// Server wraps the pipeline behind HTTP.
type Server struct {
	system         *core.System
	logger         *slog.Logger
	registry       *telemetry.Registry
	pprof          bool
	metricsOff     bool
	decisionsDebug bool

	// Decision tracing: every sampled /verify request records an
	// evidence-carrying span tree into the flight-recorder ring behind
	// /debug/decisions and /debug/trace/{id}.
	recorder    *telemetry.FlightRecorder
	flightSize  int
	sampleTrace func(string) bool

	// Load management: verifyTimeout bounds each /verify pipeline run (0
	// = unbounded, the seed behavior); sem admission-controls concurrent
	// verifies (nil = unbounded).
	verifyTimeout time.Duration
	maxInflight   int
	sem           chan struct{}

	// Evidence export: retainer holds recent decoded requests and
	// decisions for pack building (nil when no evidence surface is
	// enabled — the hot path then pays one nil test); evidenceDir spools
	// rejected-decision packs; evidenceProv is the construction recipe
	// embedded in every pack; spoolWG tracks in-flight spool writes so
	// Shutdown can drain them.
	evidenceDebug bool
	evidenceDir   string
	evidenceProv  *evidence.Provenance
	retainer      *evidenceRetainer
	spoolWG       sync.WaitGroup

	// Verify outcome counters. Total requests is their sum, so the
	// Requests == Accepted+Rejected+Errors+DeadlineExceeded+Shed
	// invariant holds by construction under any interleaving.
	accepted, rejected, errored *telemetry.Counter
	deadlined, shed             *telemetry.Counter
	vpErrDecode, vpErrVoice     *telemetry.Counter
	tooLarge                    map[string]*telemetry.Counter
	verifyInflight              *telemetry.Gauge
	pipelineHist                *telemetry.Histogram
	stageHist                   map[core.Stage]*telemetry.Histogram

	// Time-aware observability (drift.go): the rolling-window set fed
	// from the decision path, the evidence observer binding it, and the
	// gauges derived from it at scrape time. windowCfg lets tests inject
	// a simulated clock; slo/sloGoodUnder declare the burn-rate
	// objectives; driftOff hides the /debug/drift surface only.
	windows           *telemetry.WindowSet
	observer          *core.EvidenceObserver
	windowCfg         *telemetry.WindowConfig
	slo               telemetry.SLOConfig
	sloGoodUnder      time.Duration
	driftOff          bool
	driftPSI          map[seriesKey]*telemetry.Gauge
	driftKS           map[seriesKey]*telemetry.Gauge
	burnGauges        map[burnKey]*telemetry.Gauge
	goHeap            *telemetry.Gauge
	goGCPause         *telemetry.Gauge
	goGoroutines      *telemetry.Gauge
	allocsPerDecision *telemetry.Gauge

	// Streaming listener (stream.go): one TCP connection per
	// verification session, evaluated incrementally so impersonation
	// attacks are rejected before their upload completes.
	streamFrameTimeout time.Duration
	streamWG           sync.WaitGroup
	streamFramesIn     *telemetry.Counter
	streamFramesOut    *telemetry.Counter
	streamBytesIn      *telemetry.Counter
	streamBytesOut     *telemetry.Counter
	streamEarlyExit    map[core.Stage]*telemetry.Counter
	streamTTD          *telemetry.Histogram

	mu             sync.Mutex
	httpSrv        *http.Server
	addr           string
	streamLn       net.Listener
	streamAddr     string
	streamConns    map[net.Conn]struct{}
	streamShutdown bool
}

// Option configures optional server behavior.
type Option func(*Server)

// WithPprof mounts net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: profiling endpoints expose internals
// and cost CPU when scraped.
func WithPprof() Option { return func(s *Server) { s.pprof = true } }

// WithMetricsEndpoint toggles the GET /metrics exposition endpoint
// (enabled by default). Metrics are still collected when disabled; only
// the scrape surface goes away.
func WithMetricsEndpoint(enabled bool) Option {
	return func(s *Server) { s.metricsOff = !enabled }
}

// WithFlightRecorder sizes the decision flight-recorder ring (default
// telemetry.DefFlightRecorderSize). The last n decision traces stay
// queryable through FlightRecorder and — when WithDecisionEndpoints is
// also set — /debug/decisions and /debug/trace/{id}.
func WithFlightRecorder(n int) Option {
	return func(s *Server) { s.flightSize = n }
}

// WithDecisionEndpoints mounts the flight-recorder debug endpoints
// (/debug/decisions, /debug/decisions.jsonl, /debug/trace/{id}). Off by
// default, like WithPprof: the retained traces carry biometric
// verification verdicts and per-stage evidence, which must not be
// reachable by anyone who can hit the serving listener unless the
// operator opted in. Decisions are still recorded when unset; only the
// HTTP surface goes away (read the ring via FlightRecorder).
func WithDecisionEndpoints() Option {
	return func(s *Server) { s.decisionsDebug = true }
}

// WithVerifyTimeout bounds each /verify pipeline run: a verification
// that has not produced a decision within d is abandoned and answered
// with a 503 JSON error carrying the trace ID, and the deadline_exceeded
// outcome counter increments. 0 (the default) preserves the seed
// behavior — a verify may run as long as it needs. A stalled stage's
// goroutines detach and finish in the background; the connection is
// released at the deadline either way.
func WithVerifyTimeout(d time.Duration) Option {
	return func(s *Server) { s.verifyTimeout = d }
}

// WithMaxInflightVerifies admission-controls /verify: at most n
// verifications run concurrently, and request n+1 is shed immediately
// with 429 + Retry-After instead of queueing unboundedly behind a
// saturated pipeline (each verify fans out across every core, so
// admitting more than a handful multiplies nothing but memory and tail
// latency). 0 (the default) preserves the seed behavior — no limit.
func WithMaxInflightVerifies(n int) Option {
	return func(s *Server) { s.maxInflight = n }
}

// WithTraceSampling records span trees for approximately the given
// fraction of requests, chosen deterministically per trace ID. The
// default samples everything; 0 disables span recording while keeping
// metrics intact.
func WithTraceSampling(ratio float64) Option {
	return func(s *Server) { s.sampleTrace = telemetry.SampleRatio(ratio) }
}

// Stats counts verification attempts on both listeners: /verify
// requests and stream sessions. Fields are int64 so counts survive
// long-lived high-traffic deployments.
type Stats struct {
	// Requests is the total number of verification attempts: /verify
	// calls plus stream sessions that completed the handshake.
	Requests int64
	// Accepted and Rejected count decisions.
	Accepted, Rejected int64
	// Errors counts malformed or failed requests.
	Errors int64
	// DeadlineExceeded counts verifications abandoned at the server's
	// per-request deadline (HTTP 503).
	DeadlineExceeded int64
	// Shed counts requests refused by admission control (HTTP 429).
	Shed int64
}

// New builds a server around a pipeline. logger may be nil to disable
// request logging.
func New(system *core.System, logger *slog.Logger, opts ...Option) (*Server, error) {
	if system == nil {
		return nil, errors.New("server: nil system")
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{system: system, logger: logger, registry: telemetry.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	r := s.registry
	s.accepted = r.Counter(MetricVerifyTotal, telemetry.Labels{"outcome": "accepted"})
	s.rejected = r.Counter(MetricVerifyTotal, telemetry.Labels{"outcome": "rejected"})
	s.errored = r.Counter(MetricVerifyTotal, telemetry.Labels{"outcome": "error"})
	s.deadlined = r.Counter(MetricVerifyTotal, telemetry.Labels{"outcome": "deadline_exceeded"})
	s.shed = r.Counter(MetricVerifyTotal, telemetry.Labels{"outcome": "shed"})
	r.SetHelp(MetricVerifyTotal, "verification attempts by outcome")
	s.verifyInflight = r.Gauge(MetricVerifyInflight, nil)
	r.SetHelp(MetricVerifyInflight, "verifications currently executing the pipeline")
	s.vpErrDecode = r.Counter(MetricVoiceprintErrors, telemetry.Labels{"reason": "decode"})
	s.vpErrVoice = r.Counter(MetricVoiceprintErrors, telemetry.Labels{"reason": "bad_voice"})
	r.SetHelp(MetricVoiceprintErrors, "voiceprint baseline failures by reason")
	s.tooLarge = make(map[string]*telemetry.Counter)
	for _, route := range []string{"verify", "enroll", "voiceprint", "stream"} {
		s.tooLarge[route] = r.Counter(MetricRequestTooLarge, telemetry.Labels{"route": route})
	}
	r.SetHelp(MetricRequestTooLarge, "uploads refused for exceeding the 64 MiB upload cap, by route (stream: a connection's frames)")
	if s.maxInflight > 0 {
		s.sem = make(chan struct{}, s.maxInflight)
	}
	s.pipelineHist = r.Histogram(MetricPipelineLatency, nil, nil)
	r.SetHelp(MetricPipelineLatency, "time to decision per decided verification (Decision.Elapsed; on the stream it runs from hello and includes the upload)")
	s.stageHist = make(map[core.Stage]*telemetry.Histogram)
	for _, st := range core.Stages {
		s.stageHist[st] = r.Histogram(MetricStageLatency, nil, telemetry.Labels{"stage": st.MetricName()})
	}
	r.SetHelp(MetricStageLatency, "per-stage pipeline latency")
	s.initStream()
	s.initObservability()
	if s.evidenceDebug || s.evidenceDir != "" {
		s.retainer = newEvidenceRetainer()
	}
	if s.evidenceDir != "" {
		if err := os.MkdirAll(s.evidenceDir, 0o700); err != nil {
			return nil, fmt.Errorf("server: creating evidence dir: %w", err)
		}
	}
	s.recorder = telemetry.NewFlightRecorder(s.flightSize)
	// The pipeline records traces through the system's tracer; attach one
	// wired to this server's ring unless the caller installed their own.
	if system.Tracer == nil {
		system.Tracer = telemetry.NewTracer(telemetry.TracerConfig{
			Sample:   s.sampleTrace,
			Recorder: s.recorder,
		})
	} else if rec := system.Tracer.Recorder(); rec != nil {
		s.recorder = rec
	} else {
		// A caller-installed tracer without a recorder would leave the
		// debug endpoints permanently empty; give it the server's ring so
		// finished traces land where /debug/decisions reads them.
		system.Tracer.AttachRecorder(s.recorder)
	}
	return s, nil
}

// FlightRecorder returns the ring backing the /debug decision endpoints.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.recorder }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// Handler returns the HTTP routing for the server, wrapped in the
// tracing/metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/verify", s.handleVerify)
	mux.HandleFunc("/voiceprint", s.handleVoiceprint)
	mux.HandleFunc("/enroll", s.handleEnroll)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	if s.decisionsDebug {
		mux.HandleFunc(DecisionsRoute, s.handleDecisions)
		mux.HandleFunc(DecisionsJSONLRoute, s.handleDecisionsJSONL)
		mux.HandleFunc(TraceRoute, s.handleTrace)
	}
	if s.evidenceDebug {
		mux.HandleFunc(EvidenceRoute, s.handleEvidence)
	}
	if !s.driftOff {
		mux.HandleFunc(DriftRoute, s.handleDrift)
		mux.HandleFunc(DriftPinRoute, s.handleDriftPin)
	}
	if !s.metricsOff {
		mux.HandleFunc("/metrics", s.handleMetrics)
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// handleEnroll registers a user with the ASV stage. It requires the
// server to have an identity back-end attached.
func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	traceID := RequestID(r.Context())
	respond := func(status int, resp *protocol.EnrollResponse) {
		resp.TraceID = traceID
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			s.logger.Error("encoding enroll response", "err", err, "trace_id", traceID)
		}
	}
	if r.Method != http.MethodPost {
		respond(http.StatusMethodNotAllowed, &protocol.EnrollResponse{Error: "POST required"})
		return
	}
	if s.system.Identity == nil {
		respond(http.StatusNotImplemented, &protocol.EnrollResponse{Error: "no ASV stage attached"})
		return
	}
	s.capBody(w, r)
	req, err := protocol.DecodeEnroll(r.Body)
	if err != nil {
		if requestTooLarge(err) {
			s.tooLarge["enroll"].Inc()
			respond(http.StatusRequestEntityTooLarge, &protocol.EnrollResponse{Error: err.Error()})
			return
		}
		respond(http.StatusBadRequest, &protocol.EnrollResponse{Error: err.Error()})
		return
	}
	sessions, err := protocol.SessionsFromEnroll(req)
	if err != nil {
		respond(http.StatusBadRequest, &protocol.EnrollResponse{Error: err.Error()})
		return
	}
	if err := s.system.Identity.Enroll(req.User, sessions); err != nil {
		respond(http.StatusUnprocessableEntity, &protocol.EnrollResponse{Error: err.Error()})
		return
	}
	s.logger.Info("enrolled user", "user", req.User, "sessions", len(sessions),
		"trace_id", RequestID(r.Context()))
	respond(http.StatusOK, &protocol.EnrollResponse{OK: true})
}

// handleVoiceprint serves the voice-only baseline scheme (Fig. 15): it
// runs only the ASV stage when one is attached, and accepts otherwise
// (transport-path measurement).
func (s *Server) handleVoiceprint(w http.ResponseWriter, r *http.Request) {
	traceID := RequestID(r.Context())
	if r.Method != http.MethodPost {
		s.writeJSONError(w, traceID, http.StatusMethodNotAllowed, "POST required")
		return
	}
	fail := func(status int, counter *telemetry.Counter, msg string) {
		counter.Inc()
		s.logger.Warn("voiceprint failed", "trace_id", traceID, "status", status, "err", msg)
		s.writeJSONError(w, traceID, status, msg)
	}
	s.capBody(w, r)
	req, err := protocol.DecodeVoiceprint(r.Body)
	if err != nil {
		if requestTooLarge(err) {
			s.tooLarge["voiceprint"].Inc()
			fail(http.StatusRequestEntityTooLarge, s.vpErrDecode, fmt.Sprintf("decoding request: %v", err))
			return
		}
		fail(http.StatusBadRequest, s.vpErrDecode, fmt.Sprintf("decoding request: %v", err))
		return
	}
	resp := &protocol.VerifyResponse{Accepted: true, TraceID: traceID}
	if s.system.Identity != nil {
		voice, err := protocol.VoiceFromRequest(req)
		if err != nil {
			fail(http.StatusBadRequest, s.vpErrVoice, fmt.Sprintf("rebuilding voice: %v", err))
			return
		}
		start := time.Now()
		res := s.system.Identity.Verify(req.ClaimedUser, voice)
		elapsed := time.Since(start)
		s.stageHist[core.StageSpeakerID].ObserveDuration(elapsed)
		resp.Accepted = res.Pass
		if !res.Pass {
			resp.FailedStage = res.Stage.String()
		}
		resp.Stages = []protocol.StageJSON{{
			Stage: res.Stage.String(), Pass: res.Pass, Score: res.Score, Detail: res.Detail,
			ElapsedUS: elapsed.Microseconds(),
		}}
		resp.ElapsedUS = elapsed.Microseconds()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logger.Error("encoding voiceprint response", "err", err, "trace_id", RequestID(r.Context()))
	}
}

// Stats returns a snapshot of the request counters. Requests is derived
// as the sum of the outcome counters, so the Requests ==
// Accepted+Rejected+Errors+DeadlineExceeded+Shed invariant cannot be
// violated by interleaved updates.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:         s.accepted.Value(),
		Rejected:         s.rejected.Value(),
		Errors:           s.errored.Value(),
		DeadlineExceeded: s.deadlined.Value(),
		Shed:             s.shed.Value(),
	}
	st.Requests = st.Accepted + st.Rejected + st.Errors + st.DeadlineExceeded + st.Shed
	return st
}

// healthResponse is the /healthz readiness document.
type healthResponse struct {
	// Status is "ok" once the pipeline is constructed.
	Status string `json:"status"`
	// Stages reports which paper stages are configured on this server.
	Stages map[string]bool `json:"stages"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	resp := healthResponse{
		Status: "ok",
		Stages: map[string]bool{
			core.StageDistance.MetricName():    s.system.Distance != nil,
			core.StageSoundField.MetricName():  s.system.Field != nil,
			core.StageLoudspeaker.MetricName(): s.system.Speaker != nil,
			core.StageSpeakerID.MetricName():   s.system.Identity != nil,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logger.Error("encoding health response", "err", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		s.logger.Error("encoding stats", "err", err)
	}
}

// wantsOpenMetrics reports whether the scraper's Accept header
// negotiates the OpenMetrics exposition — the only format in which
// histogram exemplars are legal. Anything else (including no header)
// gets the classic exemplar-free text format, which every Prometheus
// parser accepts.
func wantsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	// Window-derived gauges (drift, burn rates, process state) are
	// recomputed on scrape, so the serving path never pays for them.
	s.refreshObservability()
	var err error
	if wantsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		err = s.registry.ExposeOpenMetrics(w)
	} else {
		w.Header().Set("Content-Type", telemetry.TextContentType)
		err = s.registry.Expose(w)
	}
	if err != nil {
		s.logger.Error("writing metrics", "err", err)
	}
}

// capBody bounds the raw upload before any gzip decode. The protocol
// decoders cap the *decompressed* payload, but without this an attacker
// could stream an unbounded raw body into the gzip reader; MaxBytesReader
// cuts the connection off at the cap and poisons further reads with
// *http.MaxBytesError. Each read of the body also gets an idle deadline,
// the stream listener's per-frame timeout, so a client that stops
// sending fails the read instead of holding its handler, and on /verify
// an admission slot, forever.
func (s *Server) capBody(w http.ResponseWriter, r *http.Request) {
	body := idleBody{r.Body, http.NewResponseController(w), s.streamFrameTimeout}
	r.Body = http.MaxBytesReader(w, body, protocol.MaxPayloadBytes)
}

// idleBody refreshes the connection's read deadline before each read.
// net/http clears it once the body reaches its end; after a failed
// decode it still bounds the server's discard of the unread body.
type idleBody struct {
	io.ReadCloser
	rc      *http.ResponseController
	timeout time.Duration
}

func (b idleBody) Read(p []byte) (int, error) {
	// A ResponseWriter without deadlines (httptest.ResponseRecorder)
	// refuses this; its body is in memory and cannot stall.
	_ = b.rc.SetReadDeadline(time.Now().Add(b.timeout))
	return b.ReadCloser.Read(p)
}

// requestTooLarge reports whether a decode failure means the upload blew
// either size cap — the raw-body guard or the decoded-payload limit —
// and should answer 413 rather than a generic 400.
func requestTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe) || errors.Is(err, protocol.ErrTooLarge)
}

// writeJSONError answers a failed POST request with the JSON error
// envelope every /verify-family failure uses — the error text plus the
// trace ID, so even a refused request correlates with the server's logs.
func (s *Server) writeJSONError(w http.ResponseWriter, traceID string, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	resp := &protocol.VerifyResponse{Error: msg, TraceID: traceID}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logger.Error("encoding error response", "err", err, "trace_id", traceID)
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	traceID := RequestID(r.Context())
	if r.Method != http.MethodPost {
		s.writeJSONError(w, traceID, http.StatusMethodNotAllowed, "POST required")
		return
	}
	v := &verification{transport: "http", traceID: traceID, start: time.Now()}
	v.refuse = func(status, retryAfterSec int, msg string) {
		if retryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		}
		s.writeJSONError(w, traceID, status, msg)
	}
	if !s.admit(v) {
		return
	}
	defer s.release()

	s.capBody(w, r)
	req, err := protocol.DecodeRequest(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if requestTooLarge(err) {
			s.tooLarge["verify"].Inc()
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(v, status, fmt.Sprintf("decoding request: %v", err))
		return
	}
	v.req, v.user = req, req.ClaimedUser
	session, err := protocol.ToSession(req)
	if err != nil {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("rebuilding session: %v", err))
		return
	}
	// The pipeline runs under the request's context — cancelled when the
	// client disconnects — optionally tightened by the configured
	// per-request deadline.
	ctx := r.Context()
	if s.verifyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.verifyTimeout)
		defer cancel()
	}
	decision, err := s.system.VerifyContext(ctx, traceID, session)
	if !s.settle(v, &decision, err, http.StatusUnprocessableEntity) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(protocol.DecisionToResponse(decision)); err != nil {
		s.logger.Error("encoding response", "err", err, "trace_id", traceID)
	}
}

// verification is one /verify request or one stream session, from
// admission to its settled outcome. Both listeners account it through
// the same admit and settle, so every verification lands in exactly one
// of accepted/rejected/errored/deadlined/shed whichever transport
// carried it.
type verification struct {
	transport string // "http" or "stream"
	traceID   string
	user      string
	start     time.Time
	// req is the decoded upload, retained for evidence packs. It is nil
	// on the stream: an early REJECT has no complete session to replay.
	req *protocol.VerifyRequest
	// refuse answers a shed, failed or abandoned verification on its
	// transport with the JSON error envelope.
	refuse func(status, retryAfterSec int, msg string)
}

// admit is the one admission path. It runs before any decode, so a shed
// verification costs the server nothing but its 429 reply, which is the
// whole point of shedding. After a true return the caller must defer
// s.release.
func (s *Server) admit(v *verification) bool {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			s.observeOutcome(telemetry.OutcomeShed, 0)
			s.logger.Warn("verify shed", "trace_id", v.traceID, "transport", v.transport,
				"max_inflight", s.maxInflight)
			v.refuse(http.StatusTooManyRequests, 1,
				fmt.Sprintf("overloaded: %d verifications already in flight", s.maxInflight))
			return false
		}
	}
	s.verifyInflight.Add(1)
	return true
}

// release gives back what admit took.
func (s *Server) release() {
	s.verifyInflight.Add(-1)
	if s.sem != nil {
		<-s.sem
	}
}

// fail settles a verification that ended in an error. Error outcomes
// report their real latency: a zero here would mislabel where time went
// the moment any window consumer starts attributing error time.
func (s *Server) fail(v *verification, status int, msg string) {
	s.errored.Inc()
	s.observeOutcome(telemetry.OutcomeError, time.Since(v.start))
	s.logger.Warn("verify failed", "trace_id", v.traceID, "transport", v.transport,
		"status", status, "err", msg)
	v.refuse(status, 0, msg)
}

// settle is the one decision sink. A deadline or cancellation is an
// honest timeout, not a verdict: 503 with the trace ID, so the client
// can retry and the operator can pull the abandoned trace from the
// flight recorder. Any other error fails with errStatus. A decision is
// recorded in the outcome counters, the windows, the stage and pipeline
// histograms, evidence retention (only when a decoded request exists)
// and one log line with per-stage durations, plus any extra log
// attributes; settle then reports true and the caller sends it.
func (s *Server) settle(v *verification, d *core.Decision, err error, errStatus int, attrs ...any) bool {
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.deadlined.Inc()
			s.observeOutcome(telemetry.OutcomeDeadlineExceeded, time.Since(v.start))
			s.logger.Warn("verify deadline exceeded", "trace_id", v.traceID, "transport", v.transport,
				"timeout", s.verifyTimeout, "err", err)
			v.refuse(http.StatusServiceUnavailable, 0, fmt.Sprintf("verification abandoned: %v", err))
			return false
		}
		s.fail(v, errStatus, fmt.Sprintf("verifying: %v", err))
		return false
	}
	if d.Accepted {
		s.accepted.Inc()
		s.observeOutcome(telemetry.OutcomeAccepted, d.Elapsed)
	} else {
		s.rejected.Inc()
		s.observeOutcome(telemetry.OutcomeRejected, d.Elapsed)
	}
	s.observer.ObserveDecision(d)
	if v.req != nil && s.evidenceEnabled() {
		s.retainEvidence(v.traceID, v.req, *d)
	}
	s.pipelineHist.ObserveDurationExemplar(d.Elapsed, d.TraceID)
	logAttrs := make([]any, 0, 2*len(d.Stages)+10+len(attrs))
	logAttrs = append(logAttrs,
		"trace_id", d.TraceID,
		"transport", v.transport,
		"user", v.user,
		"decision", d.String(),
		"elapsed", time.Since(v.start),
	)
	logAttrs = append(logAttrs, attrs...)
	for _, st := range d.Stages {
		if h, ok := s.stageHist[st.Stage]; ok {
			h.ObserveDurationExemplar(st.Elapsed, d.TraceID)
		}
		logAttrs = append(logAttrs, "stage_"+st.Stage.MetricName(), st.Elapsed)
	}
	s.logger.Info("verify", logAttrs...)
	return true
}

// Serve accepts connections on ln until Shutdown is called (or the
// listener fails). It returns http.ErrServerClosed after a clean
// shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown gracefully stops a server started with Serve or
// ListenAndServe: the listener closes immediately, in-flight
// verifications drain until ctx expires, and pending evidence-pack
// spools finish so no rejected decision loses its pack to the exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.shutdownStream(ctx)
	s.spoolWG.Wait()
	return err
}

// Addr returns the address ListenAndServe bound, or "" before the
// listener exists — the poll-friendly alternative to the ready channel.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// ListenAndServe starts the server on addr and blocks until Shutdown or
// listener failure. It reports the bound address through the ready
// channel (useful for tests binding port 0) with a non-blocking send: a
// caller that abandoned the channel forfeits the notification, it does
// not deadlock the serving goroutine before Serve ever runs. Callers
// that might miss the send poll Addr instead.
func (s *Server) ListenAndServe(addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listening on %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	s.mu.Lock()
	s.addr = bound
	s.mu.Unlock()
	if ready != nil {
		select {
		case ready <- bound:
		default:
		}
	}
	return s.Serve(ln)
}
