package server

// HTTP middleware: request-ID assignment/propagation and per-route
// latency/status instrumentation for every endpoint the server exposes.

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"voiceguard/internal/telemetry"
)

// ctxKey is the private context-key type for values this package stores
// on requests.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDHeader is the header carrying the trace ID. Clients may set
// it; the server assigns one when absent and always echoes it on the
// response.
const RequestIDHeader = "X-Request-ID"

// RequestID returns the trace ID the middleware attached to ctx, or ""
// outside an instrumented request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// maxRequestIDLen caps accepted client-supplied IDs so a hostile header
// cannot bloat logs and responses.
const maxRequestIDLen = 64

// statusRecorder captures the response code for the status counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// knownRoutes bounds the route-label cardinality: anything outside the
// fixed API surface is counted as "other" so a URL-scanning client
// cannot grow the registry without bound.
var knownRoutes = map[string]bool{
	"/verify": true, "/voiceprint": true, "/enroll": true,
	"/healthz": true, "/stats": true, "/metrics": true,
	DecisionsRoute: true, DecisionsJSONLRoute: true,
	DriftRoute: true, DriftPinRoute: true,
}

// routeLabel maps a request path to its bounded route label; the
// per-ID trace and evidence paths fold into their route prefix.
func routeLabel(path string) string {
	switch {
	case knownRoutes[path]:
		return path
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof/"
	case strings.HasPrefix(path, TraceRoute):
		return TraceRoute
	case strings.HasPrefix(path, EvidenceRoute):
		return EvidenceRoute
	}
	return "other"
}

// instrument wraps next with trace-ID propagation and per-route metrics.
func (s *Server) instrument(next http.Handler) http.Handler {
	inflight := s.registry.Gauge(MetricHTTPInflight, nil)
	s.registry.SetHelp(MetricHTTPInflight, "requests currently being served")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > maxRequestIDLen {
			id = telemetry.NewTraceID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))

		route := routeLabel(r.URL.Path)
		inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		inflight.Add(-1)

		s.registry.Histogram(MetricHTTPDuration, nil, telemetry.Labels{"route": route}).
			ObserveDuration(elapsed)
		s.registry.Counter(MetricHTTPRequests, telemetry.Labels{
			"route": route, "code": strconv.Itoa(rec.status),
		}).Inc()
	})
}
