// Package client simulates the paper's mobile application (§V): it
// records a verification session (sensors + sweep + voice), packages it
// with the wire protocol, uploads it to the verification server and
// reports the decision with timing — the measurements behind the paper's
// Fig. 15 authentication-time comparison.
//
// Every upload has a context-accepting variant (VerifyContext,
// VerifyVoiceprintContext, EnrollContext) so callers can bound an
// authentication attempt end to end; the context-free methods are
// compatibility wrappers that never time out client-side. A Client with
// a RetryPolicy transparently retries transport failures and the
// server's overload answers (429, 503) with jittered exponential
// backoff, reusing one trace ID across attempts so the server's flight
// recorder shows the retries as a single logical attempt.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/telemetry"
)

// requestIDHeader mirrors server.RequestIDHeader (not imported to keep
// the client free of server dependencies).
const requestIDHeader = "X-Request-ID"

// Client talks to one verification server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8443".
	BaseURL string
	// HTTP is the transport; nil uses a default with a sane timeout.
	HTTP *http.Client
	// Retry, when non-nil, retries transport errors and the server's
	// overload answers (429 Too Many Requests, 503 Service Unavailable)
	// with jittered exponential backoff. Nil preserves the seed behavior:
	// one attempt, every failure surfaced. Streaming attempts
	// (VerifyStream) are never retried regardless of this policy.
	Retry *RetryPolicy
	// StreamFrameDelay spaces successive VerifyStream frames to emulate
	// live capture (a phone streams evidence at sensor rate, not at
	// loopback rate). 0 streams as fast as the connection allows. The
	// server's verdict interrupts the pacing wait immediately.
	StreamFrameDelay time.Duration
}

// New returns a client for the given server.
func New(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 30 * time.Second},
	}
}

// ServerError is a non-2xx reply from the verification server. When the
// server answered with its JSON error envelope, Message carries the
// envelope's error field and TraceID the ID the attempt ran under;
// otherwise (a proxy's HTML 502, a load balancer's plain-text 504)
// Message holds a truncated snippet of the raw body, so the caller sees
// what the wire actually said instead of a JSON decoding error.
type ServerError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error text or a body snippet.
	Message string
	// TraceID is the request ID the failed exchange ran under.
	TraceID string
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Temporary reports whether the failure is worth retrying: the server
// shed load (429) or abandoned the attempt at its deadline (503). All
// other statuses describe this request, which a resend would not fix.
func (e *ServerError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryPolicy configures automatic retry of verification uploads.
// Retries fire only on transport errors and ServerError.Temporary()
// replies; decisions (accept or reject), 4xx request errors and context
// cancellation are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (values
	// below 1 mean 1 — no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles each
	// further retry. 0 uses 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 uses 2s.
	MaxDelay time.Duration
	// sleep stands in for time.After so tests can drive the retry loop
	// with a fake clock and assert the exact waits (including the
	// server's Retry-After hint) without real sleeping. Nil uses the real
	// clock.
	sleep func(time.Duration) <-chan time.Time
}

// after returns a channel that fires once d has elapsed, through the
// fake-clock seam when one is installed.
func (p *RetryPolicy) after(d time.Duration) <-chan time.Time {
	if p.sleep != nil {
		return p.sleep(d)
	}
	return time.After(d)
}

// backoff returns the jittered delay before retry number retry (1-based),
// honoring the server's Retry-After hint when it is longer.
func (p *RetryPolicy) backoff(retry int, last error) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	d := base << (retry - 1)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	// Full jitter in [d/2, d): desynchronizes a fleet of clients that were
	// all shed by the same overloaded server at the same instant.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var se *ServerError
	if errors.As(last, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

// retryable reports whether err is worth another attempt: a transport
// failure (the request may never have reached the server) or a temporary
// server answer. Context cancellation is the caller's deadline, not a
// server fault — it always stops the loop.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	// Anything else from http.Client.Do is a transport error.
	var ue *url.Error
	return errors.As(err, &ue)
}

// Result is the outcome of one authentication attempt.
type Result struct {
	// Response is the server's decision.
	Response *protocol.VerifyResponse
	// TraceID is the request ID the attempt ran under: generated
	// client-side, sent as X-Request-ID (identically on every retry of
	// the same logical attempt), echoed by the server, stamped on the
	// decision and the server's log line.
	TraceID string
	// Elapsed is the end-to-end time: encode + upload + verify + reply,
	// including any retries.
	Elapsed time.Duration
	// ServerElapsed is the pipeline time the server reported, so callers
	// can split transport from processing (the paper's Fig. 15 only had
	// the end-to-end number).
	ServerElapsed time.Duration
	// PayloadBytes is the compressed upload size.
	PayloadBytes int
	// Attempts is how many uploads the attempt took (1 without retries).
	Attempts int
}

// httpClient returns the configured transport or the default.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// maxErrorBodyBytes bounds how much of a non-JSON error reply is kept as
// the error snippet.
const maxErrorBodyBytes = 256

// isJSONResponse reports whether the reply declares a JSON body.
func isJSONResponse(resp *http.Response) bool {
	mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	return err == nil && (mt == "application/json" || strings.HasSuffix(mt, "+json"))
}

// errorFromResponse converts a non-2xx reply into a *ServerError,
// consuming the body. The server's JSON envelope is decoded for its
// error field; anything else (a proxy's HTML error page) becomes a
// truncated snippet so the failure stays legible.
func errorFromResponse(resp *http.Response, traceID string) *ServerError {
	se := &ServerError{Status: resp.StatusCode, TraceID: traceID}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		se.RetryAfter = time.Duration(ra) * time.Second
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	if isJSONResponse(resp) {
		var envelope struct {
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error != "" {
			se.Message = envelope.Error
			if envelope.TraceID != "" {
				se.TraceID = envelope.TraceID
			}
			return se
		}
	}
	snippet := strings.TrimSpace(string(body))
	if snippet == "" {
		snippet = "(empty body)"
	}
	se.Message = fmt.Sprintf("non-JSON reply: %q", snippet)
	return se
}

// postOnce uploads a gzip payload under the given trace ID and decodes
// the JSON reply into out. Non-2xx statuses return a *ServerError; the
// body is never parsed as a success document without checking the status
// first.
func (c *Client) postOnce(ctx context.Context, path, traceID string, payload []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/gzip")
	req.Header.Set(requestIDHeader, traceID)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: uploading to %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("client: %s failed: %w", path, errorFromResponse(resp, traceID))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// postRetry runs postOnce under the client's retry policy, reusing one
// trace ID across every attempt so the server sees the retries as a
// single logical attempt. It returns the trace ID, the attempt count and
// the last error.
func (c *Client) postRetry(ctx context.Context, path string, payload []byte, out any) (string, int, error) {
	traceID := telemetry.NewTraceID()
	attempts := 1
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-c.Retry.after(c.Retry.backoff(attempt-1, lastErr)):
			case <-ctx.Done():
				return traceID, attempt - 1, fmt.Errorf("client: retry abandoned: %w", ctx.Err())
			}
		}
		lastErr = c.postOnce(ctx, path, traceID, payload, out)
		if lastErr == nil {
			return traceID, attempt, nil
		}
		if !retryable(lastErr) {
			return traceID, attempt, lastErr
		}
	}
	return traceID, attempts, fmt.Errorf("client: giving up after %d attempts: %w", attempts, lastErr)
}

// Verify uploads a session and waits for the decision. It is the
// no-deadline compatibility form of VerifyContext.
func (c *Client) Verify(session *core.SessionData) (*Result, error) {
	//lint:allow ctxfirst seed-compatible entry point; deadline-aware callers use VerifyContext
	return c.VerifyContext(context.Background(), session)
}

// VerifyContext uploads a session under ctx and waits for the decision.
// The context bounds the whole attempt including retries.
func (c *Client) VerifyContext(ctx context.Context, session *core.SessionData) (*Result, error) {
	req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
	if err != nil {
		return nil, fmt.Errorf("client: packaging session: %w", err)
	}
	start := time.Now()
	payload, err := protocol.EncodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var vr protocol.VerifyResponse
	traceID, attempts, err := c.postRetry(ctx, "/verify", payload, &vr)
	if err != nil {
		return nil, err
	}
	return &Result{
		Response:      &vr,
		TraceID:       traceID,
		Elapsed:       time.Since(start),
		ServerElapsed: time.Duration(vr.ElapsedUS) * time.Microsecond,
		PayloadBytes:  len(payload),
		Attempts:      attempts,
	}, nil
}

// Enroll registers a user with the server's ASV stage from recorded
// enrollment sessions. It is the no-deadline compatibility form of
// EnrollContext.
func (c *Client) Enroll(user string, sessions [][]*audio.Signal) error {
	//lint:allow ctxfirst seed-compatible entry point; deadline-aware callers use EnrollContext
	return c.EnrollContext(context.Background(), user, sessions)
}

// EnrollContext registers a user under ctx.
func (c *Client) EnrollContext(ctx context.Context, user string, sessions [][]*audio.Signal) error {
	req, err := protocol.EnrollFromAudio(user, sessions)
	if err != nil {
		return fmt.Errorf("client: packaging enrollment: %w", err)
	}
	payload, err := protocol.EncodeEnroll(req)
	if err != nil {
		return fmt.Errorf("client: encoding enrollment: %w", err)
	}
	var er protocol.EnrollResponse
	if _, _, err := c.postRetry(ctx, "/enroll", payload, &er); err != nil {
		return err
	}
	if !er.OK {
		return fmt.Errorf("client: enrollment rejected: %s", er.Error)
	}
	return nil
}

// VerifyVoiceprint uploads a voice-only attempt to the baseline endpoint
// (the Fig. 15 WeChat-style comparison scheme). It is the no-deadline
// compatibility form of VerifyVoiceprintContext.
func (c *Client) VerifyVoiceprint(user string, voice *audio.Signal) (*Result, error) {
	//lint:allow ctxfirst seed-compatible entry point; deadline-aware callers use VerifyVoiceprintContext
	return c.VerifyVoiceprintContext(context.Background(), user, voice)
}

// VerifyVoiceprintContext uploads a voice-only attempt under ctx.
func (c *Client) VerifyVoiceprintContext(ctx context.Context, user string, voice *audio.Signal) (*Result, error) {
	req, err := protocol.VoiceprintFromAudio(user, voice)
	if err != nil {
		return nil, fmt.Errorf("client: packaging voiceprint: %w", err)
	}
	start := time.Now()
	payload, err := protocol.EncodeVoiceprint(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding voiceprint: %w", err)
	}
	var vr protocol.VerifyResponse
	traceID, attempts, err := c.postRetry(ctx, "/voiceprint", payload, &vr)
	if err != nil {
		return nil, err
	}
	return &Result{
		Response:      &vr,
		TraceID:       traceID,
		Elapsed:       time.Since(start),
		ServerElapsed: time.Duration(vr.ElapsedUS) * time.Microsecond,
		PayloadBytes:  len(payload),
		Attempts:      attempts,
	}, nil
}

// get issues a GET to a server debug endpoint and fails on non-200.
func (c *Client) get(path string) (*http.Response, error) {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return nil, fmt.Errorf("client: fetching %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("client: %s returned status %d", path, resp.StatusCode)
	}
	return resp, nil
}

// Trace fetches one decision's full span tree by trace ID. The ID is
// path-escaped: request IDs are client-chosen strings, and one holding
// '/', '?', '#' or spaces must not reshape the URL.
func (c *Client) Trace(traceID string) (*telemetry.TraceRecord, error) {
	resp, err := c.get("/debug/trace/" + url.PathEscape(traceID))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rec := &telemetry.TraceRecord{}
	if err := json.NewDecoder(resp.Body).Decode(rec); err != nil {
		return nil, fmt.Errorf("client: decoding trace %s: %w", traceID, err)
	}
	return rec, nil
}

// DriftReport fetches the server's /debug/drift document: per-series
// PSI/KS drift scores against the pinned baseline, SLO burn rates,
// process resource attribution, and the recent per-minute timeline.
// timeline bounds the timeline slots (< 0 uses the server default).
func (c *Client) DriftReport(ctx context.Context, timeline int) (*telemetry.DriftReport, error) {
	path := "/debug/drift"
	if timeline >= 0 {
		path += "?timeline=" + strconv.Itoa(timeline)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: fetching %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: %s returned status %d", path, resp.StatusCode)
	}
	rep := &telemetry.DriftReport{}
	if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
		return nil, fmt.Errorf("client: decoding drift report: %w", err)
	}
	return rep, nil
}

// MetricsText fetches the raw Prometheus text exposition from /metrics
// (voiceguard-top parses a few families out of it).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("client: fetching /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: /metrics returned status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading metrics: %w", err)
	}
	return string(data), nil
}
