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
	MetricStageLatency    = "voiceguard_stage_latency_seconds"
	MetricPipelineLatency = "voiceguard_pipeline_latency_seconds"
	MetricVerifyTotal     = "voiceguard_verify_total"
	MetricVoiceprintTotal = "voiceguard_voiceprint_total"
	MetricEnrollTotal     = "voiceguard_enroll_total"
	MetricVerifyInflight  = "voiceguard_verify_inflight"
	MetricHTTPRequests    = "voiceguard_http_requests_total"
	MetricHTTPDuration    = "voiceguard_http_request_duration_seconds"
	MetricHTTPInflight    = "voiceguard_http_inflight_requests"
	MetricRequestTooLarge = "voiceguard_request_too_large_total"
)

// Server wraps the pipeline behind HTTP.
type Server struct {
	system         *core.System
	logger         *slog.Logger
	registry       *telemetry.Registry
	pprof          bool
	metricsOff     bool
	decisionsDebug bool

	// Decision tracing: every sampled decision records its span tree in
	// the flight-recorder ring behind /debug/decisions.
	recorder    *telemetry.FlightRecorder
	flightSize  int
	sampleTrace func(string) bool

	// Load management of every scoring route: a pipeline deadline (0 =
	// none) and an admission semaphore (nil = unbounded).
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

	// Outcome counters per kind of request; Stats reads verifies.
	verifies, voiceprints, enrolls family
	tooLarge                       map[string]*telemetry.Counter
	verifyInflight                 *telemetry.Gauge
	pipelineHist                   *telemetry.Histogram
	stageHist                      map[core.Stage]*telemetry.Histogram

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

// WithVerifyTimeout bounds the pipeline run of every scoring route's
// request: past d it is abandoned, answered 503 with the trace ID and
// counted as its route's deadline_exceeded. 0 (the default) is no bound.
// A stalled stage's goroutines detach and finish in the background.
func WithVerifyTimeout(d time.Duration) Option {
	return func(s *Server) { s.verifyTimeout = d }
}

// WithMaxInflightVerifies lets at most n requests of the scoring routes
// (/verify, stream sessions, /voiceprint, /enroll) run at once: request
// n+1 is shed at once with 429 + Retry-After instead of queueing behind
// a saturated pipeline, where each verify already fans out across every
// core. 0 (the default) is no limit.
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
// requests and stream sessions, not /voiceprint or /enroll. Fields are
// int64 so counts survive long-lived high-traffic deployments.
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
	s.verifies = newFamily(r, MetricVerifyTotal, "verify", "verification attempts (/verify and stream sessions) by outcome")
	s.voiceprints = newFamily(r, MetricVoiceprintTotal, "voiceprint", "voice-only baseline attempts by outcome")
	s.enrolls = newFamily(r, MetricEnrollTotal, "enroll",
		"enrollment attempts by outcome (accepted: enrolled; rejected: the user was already enrolled)")
	s.verifyInflight = r.Gauge(MetricVerifyInflight, nil)
	r.SetHelp(MetricVerifyInflight, "requests holding an admission slot (verifications, voiceprints and enrollments)")
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

// handleEnroll registers a new user with the ASV stage. It answers 501
// without one, and 409 for a user who is already enrolled.
func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	v, release := s.begin(w, r, &s.enrolls, s.system.Identity != nil)
	if v == nil {
		return
	}
	defer release()
	if s.system.Identity == nil {
		s.fail(v, http.StatusNotImplemented, "no ASV stage attached")
		return
	}
	req, err := protocol.DecodeEnroll(r.Body)
	if err != nil {
		s.decodeFailed(v, err)
		return
	}
	v.user = req.User
	sessions, err := protocol.SessionsFromEnroll(req)
	if err != nil {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("rebuilding sessions: %v", err))
		return
	}
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
	switch err := s.system.EnrollContext(ctx, req.User, sessions); {
	case errors.Is(err, core.ErrUserEnrolled):
		s.observe(v, telemetry.OutcomeRejected, time.Since(v.start))
		s.logger.Warn("enroll refused", "trace_id", v.traceID, "user", v.user, "err", err)
		v.refuse(http.StatusConflict, 0, err.Error())
	case err != nil:
		s.settle(v, nil, err, http.StatusUnprocessableEntity)
	default:
		s.observe(v, telemetry.OutcomeAccepted, time.Since(v.start))
		s.logger.Info("enroll", "trace_id", v.traceID, "transport", v.transport, "user", v.user,
			"sessions", len(sessions), "elapsed", time.Since(v.start))
		s.writeJSON(w, v.traceID, http.StatusOK, &protocol.EnrollResponse{OK: true, TraceID: v.traceID})
	}
}

// handleVoiceprint serves the voice-only baseline scheme (Fig. 15).
// Without an identity stage it answers an ACCEPT that runs no stage and
// takes no admission slot: experiment.RunTiming times that transport.
func (s *Server) handleVoiceprint(w http.ResponseWriter, r *http.Request) {
	scored := s.system.Identity != nil
	v, release := s.begin(w, r, &s.voiceprints, scored)
	if v == nil {
		return
	}
	defer release()
	req, err := protocol.DecodeVoiceprint(r.Body)
	if err != nil {
		s.decodeFailed(v, err)
		return
	}
	v.user = req.ClaimedUser
	decision := core.Decision{TraceID: v.traceID, Accepted: true}
	if scored {
		voice, verr := protocol.VoiceFromRequest(req)
		if verr != nil {
			s.fail(v, http.StatusBadRequest, fmt.Sprintf("rebuilding voice: %v", verr))
			return
		}
		ctx, cancel := s.deadline(r.Context())
		defer cancel()
		decision, err = s.system.VerifyVoiceContext(ctx, v.traceID, req.ClaimedUser, voice)
	}
	if s.settle(v, &decision, err, http.StatusUnprocessableEntity) {
		s.writeJSON(w, v.traceID, http.StatusOK, protocol.DecisionToResponse(decision))
	}
}

// Stats returns a snapshot of the verification counters. Requests is
// their sum, so the Requests == Accepted+Rejected+Errors+
// DeadlineExceeded+Shed invariant holds under any interleaving.
func (s *Server) Stats() Stats {
	c := &s.verifies.counts
	st := Stats{
		Accepted:         c[telemetry.OutcomeAccepted].Value(),
		Rejected:         c[telemetry.OutcomeRejected].Value(),
		Errors:           c[telemetry.OutcomeError].Value(),
		DeadlineExceeded: c[telemetry.OutcomeDeadlineExceeded].Value(),
		Shed:             c[telemetry.OutcomeShed].Value(),
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
	s.writeJSON(w, "", http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.writeJSON(w, "", http.StatusOK, s.Stats())
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

// capBody bounds the raw upload before any gzip decode, which caps only
// the decompressed payload: MaxBytesReader cuts the connection off at
// the cap with *http.MaxBytesError. Each read also gets an idle deadline,
// the stream's per-frame timeout, so a client that stops sending fails
// the read instead of holding its handler and admission slot forever.
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

// writeJSON answers a request with body as JSON; traceID, when known,
// tags a failed encode's log line.
func (s *Server) writeJSON(w http.ResponseWriter, traceID string, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.logger.Error("encoding response", "err", err, "trace_id", traceID)
	}
}

// deadline bounds ctx by the configured per-request timeout, if any.
func (s *Server) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.verifyTimeout > 0 {
		return context.WithTimeout(ctx, s.verifyTimeout)
	}
	return ctx, func() {}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	v, release := s.begin(w, r, &s.verifies, true)
	if v == nil {
		return
	}
	defer release()
	req, err := protocol.DecodeRequest(r.Body)
	if err != nil {
		s.decodeFailed(v, err)
		return
	}
	v.req, v.user = req, req.ClaimedUser
	session, err := protocol.ToSession(req)
	if err != nil {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("rebuilding session: %v", err))
		return
	}
	// Cancelled when the client disconnects, or at the deadline.
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
	decision, err := s.system.VerifyContext(ctx, v.traceID, session)
	if s.settle(v, &decision, err, http.StatusUnprocessableEntity) {
		s.writeJSON(w, v.traceID, http.StatusOK, protocol.DecisionToResponse(decision))
	}
}

// family is one kind of request's outcome counters, indexed by
// telemetry.VerifyOutcome. Only verifies (/verify and the stream) feeds
// Stats, the windows and the pipeline histogram.
type family struct {
	name   string // the route, and the message of its log lines
	counts [telemetry.OutcomeShed + 1]*telemetry.Counter
}

func newFamily(r *telemetry.Registry, metric, name, help string) family {
	f := family{name: name}
	for o := range f.counts {
		f.counts[o] = r.Counter(metric, telemetry.Labels{"outcome": telemetry.VerifyOutcome(o).String()})
	}
	r.SetHelp(metric, help)
	return f
}

// verification is one request of a scoring route from admission to its
// settled outcome. Every route accounts it through the same admit, fail
// and settle, so it lands in exactly one outcome of its family.
type verification struct {
	fam       *family
	transport string // "http" or "stream"
	traceID   string
	user      string
	start     time.Time
	req       *protocol.VerifyRequest // a /verify upload, kept for evidence packs
	// refuse answers with the JSON error envelope every POST route and
	// the stream share: the error text plus the trace ID, so even a
	// refusal correlates with the logs.
	refuse func(status, retryAfterSec int, msg string)
}

// begin starts the verification of a POST to an HTTP route of fam, caps
// its body and, when admit is set, takes an admission slot. It returns
// nil once it has answered (405 or 429); else the caller defers release.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, fam *family, admit bool) (v *verification, release func()) {
	traceID := RequestID(r.Context())
	v = &verification{fam: fam, transport: "http", traceID: traceID, start: time.Now()}
	v.refuse = func(status, retryAfterSec int, msg string) {
		if retryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		}
		s.writeJSON(w, traceID, status, &protocol.VerifyResponse{Error: msg, TraceID: traceID})
	}
	if r.Method != http.MethodPost {
		v.refuse(http.StatusMethodNotAllowed, 0, "POST required")
		return nil, nil
	}
	release = func() {}
	if admit {
		if !s.admit(v) {
			return nil, nil
		}
		release = s.release
	}
	s.capBody(w, r)
	return v, release
}

// observe counts v's outcome; a verification's also feeds the windows.
func (s *Server) observe(v *verification, o telemetry.VerifyOutcome, latency time.Duration) {
	v.fam.counts[o].Inc()
	if v.fam == &s.verifies {
		s.windows.ObserveVerify(o, latency)
	}
}

// admit is the one admission path. It runs before any decode, so a shed
// request costs only its 429 reply. After a true return the caller must
// defer s.release.
func (s *Server) admit(v *verification) bool {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.observe(v, telemetry.OutcomeShed, 0)
			s.logger.Warn(v.fam.name+" shed", "trace_id", v.traceID, "transport", v.transport,
				"max_inflight", s.maxInflight)
			v.refuse(http.StatusTooManyRequests, 1,
				fmt.Sprintf("overloaded: %d requests already in flight", s.maxInflight))
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

// fail settles a request that ended in an error, with its real latency:
// a zero would mislabel where time went.
func (s *Server) fail(v *verification, status int, msg string) {
	s.observe(v, telemetry.OutcomeError, time.Since(v.start))
	s.logger.Warn(v.fam.name+" failed", "trace_id", v.traceID, "transport", v.transport,
		"status", status, "err", msg)
	v.refuse(status, 0, msg)
}

// requestTooLarge reports whether a decode failure means the upload blew
// either size cap — the raw-body guard or the decoded-payload limit.
func requestTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe) || errors.Is(err, protocol.ErrTooLarge)
}

// decodeFailed fails a request whose upload did not decode: 413, counted
// per route, when it was too large, and 400 otherwise.
func (s *Server) decodeFailed(v *verification, err error) {
	status := http.StatusBadRequest
	if requestTooLarge(err) {
		s.tooLarge[v.fam.name].Inc()
		status = http.StatusRequestEntityTooLarge
	}
	s.fail(v, status, fmt.Sprintf("decoding request: %v", err))
}

// settle is the one decision sink. A deadline or cancellation is an
// honest timeout, not a verdict: 503 with the trace ID, so the client
// can retry and the operator can find the abandoned trace. Any other
// error fails with errStatus. A decision is counted, observed (a
// verification's also in the windows, the pipeline histogram and
// evidence retention) and logged; settle then reports true.
func (s *Server) settle(v *verification, d *core.Decision, err error, errStatus int, attrs ...any) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.observe(v, telemetry.OutcomeDeadlineExceeded, time.Since(v.start))
		s.logger.Warn(v.fam.name+" deadline exceeded", "trace_id", v.traceID, "transport", v.transport,
			"timeout", s.verifyTimeout, "err", err)
		v.refuse(http.StatusServiceUnavailable, 0, fmt.Sprintf("request abandoned: %v", err))
		return false
	}
	if err != nil {
		s.fail(v, errStatus, fmt.Sprintf("%s: %v", v.fam.name, err))
		return false
	}
	if d.Accepted {
		s.observe(v, telemetry.OutcomeAccepted, d.Elapsed)
	} else {
		s.observe(v, telemetry.OutcomeRejected, d.Elapsed)
	}
	if v.fam == &s.verifies {
		s.observer.ObserveDecision(d)
		s.pipelineHist.ObserveDurationExemplar(d.Elapsed, d.TraceID)
	}
	if v.req != nil && s.evidenceEnabled() {
		s.retainEvidence(v.traceID, v.req, *d)
	}
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
	s.logger.Info(v.fam.name, logAttrs...)
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
	ln, err := s.listen(addr, &s.addr, ready)
	if err != nil {
		return fmt.Errorf("server: listening on %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// listen binds addr, records the bound address in *bound and offers it
// to ready with a non-blocking send (a nil ready is never ready).
func (s *Server) listen(addr string, bound *string, ready chan<- string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	*bound = ln.Addr().String()
	s.mu.Unlock()
	select {
	case ready <- ln.Addr().String():
	default:
	}
	return ln, nil
}
