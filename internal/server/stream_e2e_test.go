package server

// Cross-protocol parity, observed end to end: the same session replayed
// over HTTP/JSON and over the binary stream must yield bit-identical
// verdicts, stage scores, and recorded trace evidence. Runs under -race
// in CI — the streaming path shares the pipeline with concurrent HTTP
// traffic and must stay data-race free.

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/telemetry"
)

// dualProtocolServer runs one server on both transports and returns the
// HTTP base URL and the stream address.
func dualProtocolServer(t *testing.T) (*Server, string, string) {
	t.Helper()
	return dualProtocolServerLogging(t, nil)
}

// dualProtocolServerLogging is dualProtocolServer with a request logger.
func dualProtocolServerLogging(t *testing.T, logger *slog.Logger) (*Server, string, string) {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dualProtocolServerSystem(t, sys, logger)
}

// dualProtocolServerSystem is dualProtocolServerLogging around sys.
func dualProtocolServerSystem(t *testing.T, sys *core.System, logger *slog.Logger) (*Server, string, string) {
	t.Helper()
	srv, err := New(sys, logger, WithDecisionEndpoints())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServeStream("127.0.0.1:0", ready) }()
	var streamAddr string
	select {
	case streamAddr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("stream listener never ready")
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, ts.URL, streamAddr
}

// stageEvidence extracts the float attributes of every stage span,
// keyed stage/attr — the evidence the trace recorded while deciding.
func stageEvidence(t *testing.T, rec *telemetry.TraceRecord) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, sp := range rec.Spans {
		if len(sp.Name) < len(telemetry.StageSpanName) || sp.Name[:len(telemetry.StageSpanName)] != telemetry.StageSpanName {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Kind == telemetry.KindFloat {
				out[sp.Name+"/"+a.Key] = a.Float
			}
		}
	}
	return out
}

func TestStreamAndHTTPVerdictsBitIdentical(t *testing.T) {
	srv, httpURL, streamAddr := dualProtocolServer(t)
	session := genuineSession(t, 61)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), session)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, session)
	if err != nil {
		t.Fatal(err)
	}

	h, s := httpRes.Response, streamRes.Response
	if h.Accepted != s.Accepted {
		t.Fatalf("verdicts differ: http=%v stream=%v", h.Accepted, s.Accepted)
	}
	if !h.Accepted {
		t.Fatalf("genuine session rejected on both protocols: %+v", h)
	}
	if len(h.Stages) != len(s.Stages) {
		t.Fatalf("stage counts differ: http=%d stream=%d", len(h.Stages), len(s.Stages))
	}
	for i := range h.Stages {
		hs, ss := h.Stages[i], s.Stages[i]
		if hs.Stage != ss.Stage || hs.Pass != ss.Pass {
			t.Errorf("stage %d: http=%s/%v stream=%s/%v", i, hs.Stage, hs.Pass, ss.Stage, ss.Pass)
		}
		if math.Float64bits(hs.Score) != math.Float64bits(ss.Score) {
			t.Errorf("stage %s score bits differ: http=%x stream=%x",
				hs.Stage, math.Float64bits(hs.Score), math.Float64bits(ss.Score))
		}
		if hs.Detail != ss.Detail {
			t.Errorf("stage %s detail differs: %q vs %q", hs.Stage, hs.Detail, ss.Detail)
		}
	}

	// The recorded trace evidence — every float attribute on every stage
	// span — is bitwise identical across transports.
	httpTrace := srv.FlightRecorder().Find(httpRes.TraceID)
	streamTrace := srv.FlightRecorder().Find(streamRes.TraceID)
	if httpTrace == nil || streamTrace == nil {
		t.Fatalf("traces not recorded: http=%v stream=%v", httpTrace != nil, streamTrace != nil)
	}
	he, se := stageEvidence(t, httpTrace), stageEvidence(t, streamTrace)
	if len(he) == 0 {
		t.Fatal("HTTP trace recorded no stage evidence")
	}
	if len(he) != len(se) {
		t.Fatalf("evidence key counts differ: http=%d stream=%d", len(he), len(se))
	}
	for k, hv := range he {
		sv, ok := se[k]
		if !ok {
			t.Errorf("stream trace missing evidence %s", k)
			continue
		}
		if math.Float64bits(hv) != math.Float64bits(sv) {
			t.Errorf("evidence %s differs: http=%x stream=%x", k, math.Float64bits(hv), math.Float64bits(sv))
		}
	}
}

func TestStreamAndHTTPAgreeOnReplayAttack(t *testing.T) {
	srv, httpURL, streamAddr := dualProtocolServer(t)
	replay := replaySession(t, 62)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, replay)
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Response.Accepted || streamRes.Response.Accepted {
		t.Fatalf("replay accepted: http=%v stream=%v",
			httpRes.Response.Accepted, streamRes.Response.Accepted)
	}
	// The stream decided early, and said so in the metrics.
	if !streamRes.EarlyExit {
		t.Error("stream did not reject the replay before upload finished")
	}
	var exits int64
	for _, ctr := range srv.streamEarlyExit {
		exits += ctr.Value()
	}
	if exits == 0 {
		t.Error("early-exit counter still zero after an early rejection")
	}
}

// TestStreamAndHTTPSettleDecisionsAlike pins the shared decision sink:
// a decision on either listener feeds the pipeline latency histogram
// and logs one "verify" line carrying its transport, the claimed user
// and every executed stage's duration.
func TestStreamAndHTTPSettleDecisionsAlike(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &logBuf, mu: &logMu}, nil))
	srv, httpURL, streamAddr := dualProtocolServerLogging(t, logger)
	session := genuineSession(t, 63)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), session)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, session)
	if err != nil {
		t.Fatal(err)
	}
	if !httpRes.Response.Accepted || !streamRes.Response.Accepted {
		t.Fatalf("genuine session rejected: http=%v stream=%v",
			httpRes.Response.Accepted, streamRes.Response.Accepted)
	}

	if got := srv.pipelineHist.Count(); got != 2 {
		t.Errorf("%s count = %d, want one observation per transport", MetricPipelineLatency, got)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	for _, tc := range []struct{ transport, traceID string }{
		{"http", httpRes.TraceID},
		{"stream", streamRes.TraceID},
	} {
		var line string
		for _, l := range strings.Split(logged, "\n") {
			if strings.Contains(l, "msg=verify ") && strings.Contains(l, "trace_id="+tc.traceID) {
				line = l
			}
		}
		if line == "" {
			t.Errorf("%s: no verify log line for trace %s:\n%s", tc.transport, tc.traceID, logged)
			continue
		}
		for _, field := range []string{
			"transport=" + tc.transport, "user=" + session.ClaimedUser,
			"stage_distance=", "stage_soundfield=", "stage_loudspeaker=",
		} {
			if !strings.Contains(line, field) {
				t.Errorf("%s: verify log line lacks %q: %s", tc.transport, field, line)
			}
		}
	}
}
