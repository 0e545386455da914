package server

// One request path for every scoring route: /voiceprint and /enroll are
// admitted, bounded, settled and counted like /verify and the stream,
// each in its own outcome family, and never in the verification Stats.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// voiceprintPayload encodes a /voiceprint upload of voice claiming user.
func voiceprintPayload(t *testing.T, user string, voice *audio.Signal) []byte {
	t.Helper()
	req, err := protocol.VoiceprintFromAudio(user, voice)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeVoiceprint(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// speaker synthesizes n utterances of one random speaker.
func speaker(t *testing.T, name string, seed int64, n int) []*audio.Signal {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	synth, err := speech.NewSynthesizer(speech.RandomProfile(name, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	utts := make([]*audio.Signal, n)
	for i := range utts {
		if utts[i], err = synth.SayDigits("314159"); err != nil {
			t.Fatal(err)
		}
	}
	return utts
}

// enrollPayload encodes a one-session /enroll upload.
func enrollPayload(t *testing.T, user string, session []*audio.Signal) []byte {
	t.Helper()
	req, err := protocol.EnrollFromAudio(user, [][]*audio.Signal{session})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeEnroll(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// outcomes reads a family's counters, indexed by telemetry.VerifyOutcome.
func outcomes(f *family) [telemetry.OutcomeShed + 1]int64 {
	var out [telemetry.OutcomeShed + 1]int64
	for o, c := range f.counts {
		out[o] = c.Value()
	}
	return out
}

// checkStatsInvariant fails unless Requests is the sum of the outcomes.
func checkStatsInvariant(t *testing.T, st Stats) {
	t.Helper()
	if sum := st.Accepted + st.Rejected + st.Errors + st.DeadlineExceeded + st.Shed; st.Requests != sum {
		t.Errorf("stats %+v: Requests != outcome sum %d", st, sum)
	}
}

// TestEveryRouteShedAtMaxInflight parks max-inflight verifies, then
// sends a voiceprint and an enroll: both are shed with 429 and
// Retry-After, each in its own family, and the verification Stats do
// not see them.
func TestEveryRouteShedAtMaxInflight(t *testing.T) {
	const slots = 2
	sys, started, release := parkedSystem(t, core.StageDistance, &core.SpeakerVerifier{})
	srv, err := New(sys, nil, WithMaxInflightVerifies(slots))
	if err != nil {
		t.Fatal(err)
	}
	base := newHandlerServer(t, srv)
	payload := genuinePayload(t, 42)

	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postID(t, base, "/verify", "", payload)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	for i := 0; i < slots; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d verifications reached the pipeline", i, slots)
		}
	}
	parked := srv.Stats()
	checkStatsInvariant(t, parked)

	voice := speaker(t, "frank", 61, 1)
	for _, tc := range []struct {
		path    string
		payload []byte
		fam     *family
	}{
		{"/voiceprint", voiceprintPayload(t, "frank", voice[0]), &srv.voiceprints},
		{"/enroll", enrollPayload(t, "frank", voice), &srv.enrolls},
	} {
		traceID := "shed" + strings.ReplaceAll(tc.path, "/", "-")
		resp := postID(t, base, tc.path, traceID, tc.payload)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s with every slot held: status = %d, want 429", tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 missing Retry-After", tc.path)
		}
		if vr := decodeEnvelope(t, resp); vr.TraceID != traceID || !strings.Contains(vr.Error, "overloaded") {
			t.Errorf("%s: shed envelope %+v", tc.path, vr)
		}
		if got := outcomes(tc.fam); got != [telemetry.OutcomeShed + 1]int64{telemetry.OutcomeShed: 1} {
			t.Errorf("%s: family outcomes = %v, want one shed", tc.path, got)
		}
		st := srv.Stats()
		if st != parked {
			t.Errorf("%s: Stats moved from %+v to %+v", tc.path, parked, st)
		}
		checkStatsInvariant(t, st)
	}

	release()
	wg.Wait()
	st := srv.Stats()
	checkStatsInvariant(t, st)
	if st.Requests != slots || st.Shed != 0 {
		t.Errorf("Stats = %+v, want the %d parked verifications only", st, slots)
	}
}

// TestVoiceprintDeadlineAnswers503 hangs the identity stage of a
// /voiceprint past the server's deadline: the reply is 503 with the
// trace ID, never a REJECT, and it counts as the voiceprint family's
// deadline_exceeded.
func TestVoiceprintDeadlineAnswers503(t *testing.T) {
	sys, started, _ := parkedSystem(t, core.StageSpeakerID, trainedVerifier(t))
	srv, err := New(sys, nil, WithVerifyTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := newHandlerServer(t, srv)
	voice := speaker(t, "grace", 62, 1)[0]

	resp := postID(t, base, "/voiceprint", "vp-deadline-1", voiceprintPayload(t, "grace", voice))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	vr := decodeEnvelope(t, resp)
	if vr.TraceID != "vp-deadline-1" || !strings.Contains(vr.Error, "abandoned") {
		t.Errorf("envelope = %+v, want the trace ID and an honest abandonment", vr)
	}
	if vr.FailedStage != "" || len(vr.Stages) != 0 {
		t.Errorf("a deadline fabricated a verdict: %+v", vr)
	}
	select {
	case <-started:
	default:
		t.Error("identity stage never entered; the deadline raced no work")
	}
	want := [telemetry.OutcomeShed + 1]int64{telemetry.OutcomeDeadlineExceeded: 1}
	if got := outcomes(&srv.voiceprints); got != want {
		t.Errorf("voiceprint outcomes = %v, want one deadline_exceeded", got)
	}
	if st := srv.Stats(); st != (Stats{}) {
		t.Errorf("Stats = %+v, want a voiceprint counted nowhere in Stats", st)
	}
}

// TestEnrollDeadlineNeverRegisters hangs an enrollment build past the
// server's deadline: the reply is 503, and once the build runs to its
// end the user is still not enrolled.
func TestEnrollDeadlineNeverRegisters(t *testing.T) {
	verifier := trainedVerifier(t)
	sys, started, release := parkedSystem(t, core.StageSpeakerID, verifier)
	srv, err := New(sys, nil, WithVerifyTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := newHandlerServer(t, srv)
	utts := speaker(t, "heidi", 63, 4)

	resp := postID(t, base, "/enroll", "enroll-deadline-1", enrollPayload(t, "heidi", utts[:3]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if vr := decodeEnvelope(t, resp); vr.TraceID != "enroll-deadline-1" {
		t.Errorf("envelope trace_id = %q", vr.TraceID)
	}
	select {
	case <-started:
	default:
		t.Fatal("enrollment build never entered the stage hook")
	}
	release()
	// The detached build now runs to its end; it must never register.
	// Building the same model here takes as long, so the detached one
	// has had its time once this returns and the poll below ends.
	if _, err := verifier.BuildEnrollment("probe", [][]*audio.Signal{utts[:3]}); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if _, err := verifier.Score("heidi", utts[3]); !errors.Is(err, core.ErrUnknownUser) {
			t.Fatalf("an enrollment answered 503 landed later (Score err = %v)", err)
		}
	}
	want := [telemetry.OutcomeShed + 1]int64{telemetry.OutcomeDeadlineExceeded: 1}
	if got := outcomes(&srv.enrolls); got != want {
		t.Errorf("enroll outcomes = %v, want one deadline_exceeded", got)
	}
}

// TestEnrollRefusesToReplaceUser pins the HTTP enrollment rule: a user
// is enrolled once, and a second /enroll under the same name answers
// 409 in the JSON error envelope and leaves the first model in place.
func TestEnrollRefusesToReplaceUser(t *testing.T) {
	ts, verifier := asvServer(t)
	owner := speaker(t, "ivan", 64, 4)
	intruder := speaker(t, "mallory", 65, 3)
	c := client.New(ts.URL)
	if err := c.Enroll("ivan", [][]*audio.Signal{owner[:3]}); err != nil {
		t.Fatal(err)
	}
	before, err := verifier.Score("ivan", owner[3])
	if err != nil {
		t.Fatal(err)
	}

	resp := postID(t, ts.URL, "/enroll", "reenroll-1", enrollPayload(t, "ivan", intruder))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-enroll status = %d, want 409", resp.StatusCode)
	}
	if vr := decodeEnvelope(t, resp); vr.TraceID != "reenroll-1" || !strings.Contains(vr.Error, "already enrolled") {
		t.Errorf("409 envelope = %+v", vr)
	}
	after, err := verifier.Score("ivan", owner[3])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(before) {
		t.Errorf("score moved %v -> %v: the refused enrollment replaced the model", before, after)
	}
}

// TestConcurrentEnrollOneWins races two enrollments of one new user:
// exactly one is enrolled (200) and the other refused (409).
func TestConcurrentEnrollOneWins(t *testing.T) {
	ts, _ := asvServer(t)
	payloads := [2][]byte{
		enrollPayload(t, "judy", speaker(t, "judy", 66, 3)),
		enrollPayload(t, "judy", speaker(t, "judy2", 67, 3)),
	}
	var statuses [2]int
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postID(t, ts.URL, "/enroll", fmt.Sprintf("race-%d", i), payloads[i])
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	ok, conflict := 0, 0
	for _, code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusConflict:
			conflict++
		}
	}
	if ok != 1 || conflict != 1 {
		t.Errorf("statuses = %v, want one 200 and one 409", statuses)
	}
}

// TestEveryRouteSettlesAlike sends a /verify, a streamed and a
// /voiceprint decision through one server: each appears in the flight
// recorder and logs one settle line with the same keys.
func TestEveryRouteSettlesAlike(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &logBuf, mu: &logMu}, nil))
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachIdentity(trainedVerifier(t))
	srv, httpURL, streamAddr := dualProtocolServerSystem(t, sys, logger)
	session := genuineSession(t, 68)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), session)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, session)
	if err != nil {
		t.Fatal(err)
	}
	vpRes, err := c.VerifyVoiceprint(session.ClaimedUser, session.Voice)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(httpURL + DecisionsRoute)
	if err != nil {
		t.Fatal(err)
	}
	var summaries []telemetry.TraceSummary
	err = json.NewDecoder(resp.Body).Decode(&summaries)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]bool)
	for _, sum := range summaries {
		recorded[sum.TraceID] = true
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	for _, tc := range []struct{ msg, transport, traceID string }{
		{"verify", "http", httpRes.TraceID},
		{"verify", "stream", streamRes.TraceID},
		{"voiceprint", "http", vpRes.TraceID},
	} {
		if !recorded[tc.traceID] {
			t.Errorf("%s over %s: trace %s not in %s", tc.msg, tc.transport, tc.traceID, DecisionsRoute)
		}
		var lines []string
		for _, l := range strings.Split(logged, "\n") {
			if strings.Contains(l, "trace_id="+tc.traceID) && strings.Contains(l, "msg="+tc.msg+" ") {
				lines = append(lines, l)
			}
		}
		if len(lines) != 1 {
			t.Errorf("%s over %s: %d settle lines for trace %s, want 1:\n%s", tc.msg, tc.transport, len(lines), tc.traceID, logged)
			continue
		}
		for _, key := range []string{
			"trace_id=", "transport=" + tc.transport, "user=" + session.ClaimedUser,
			"decision=", "elapsed=", "stage_" + core.StageSpeakerID.MetricName() + "=",
		} {
			if !strings.Contains(lines[0], key) {
				t.Errorf("%s over %s: settle line lacks %q: %s", tc.msg, tc.transport, key, lines[0])
			}
		}
	}
	if got := outcomes(&srv.voiceprints); got[telemetry.OutcomeAccepted]+got[telemetry.OutcomeRejected] != 1 {
		t.Errorf("voiceprint outcomes = %v, want one decision", got)
	}
	if st := srv.Stats(); st.Requests != 2 {
		t.Errorf("Stats.Requests = %d, want the two verifications only", st.Requests)
	}
}

// TestVoiceprintReplyMatchesIdentityStage pins the /voiceprint reply to
// the identity stage's own result on the same transported voice: stage,
// pass, score bits and detail, for an accepted voice, an imitator and an
// unknown user.
func TestVoiceprintReplyMatchesIdentityStage(t *testing.T) {
	ts, verifier := asvServer(t)
	owner := speaker(t, "kim", 69, 4)
	imitator := speaker(t, "leo", 70, 1)[0]
	if err := verifier.Enroll("kim", [][]*audio.Signal{owner[:3]}); err != nil {
		t.Fatal(err)
	}
	genuine, err := verifier.Score("kim", owner[3])
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := verifier.Score("kim", imitator)
	if err != nil {
		t.Fatal(err)
	}
	if genuine <= impostor {
		t.Fatalf("genuine score %v <= imitator %v: no threshold separates them", genuine, impostor)
	}
	verifier.Threshold = (genuine + impostor) / 2

	c := client.New(ts.URL)
	for _, tc := range []struct {
		name, user string
		voice      *audio.Signal
		accepted   bool
	}{
		{"genuine", "kim", owner[3], true},
		{"imitator", "kim", imitator, false},
		{"unknown user", "nobody", owner[3], false},
	} {
		// The reference scores the voice as the server receives it.
		req, err := protocol.DecodeVoiceprint(bytes.NewReader(voiceprintPayload(t, tc.user, tc.voice)))
		if err != nil {
			t.Fatal(err)
		}
		voice, err := protocol.VoiceFromRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		want := verifier.VerifySpan(nil, tc.user, voice)

		res, err := c.VerifyVoiceprint(tc.user, tc.voice)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := res.Response
		if r.Accepted != tc.accepted || r.Accepted != want.Pass || len(r.Stages) != 1 {
			t.Fatalf("%s: reply %+v, want one stage and accepted=%v", tc.name, r, tc.accepted)
		}
		if !r.Accepted && r.FailedStage != want.Stage.String() {
			t.Errorf("%s: failed_stage = %q, want %q", tc.name, r.FailedStage, want.Stage)
		}
		got := r.Stages[0]
		if got.Stage != want.Stage.String() || got.Pass != want.Pass ||
			math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Detail != want.Detail {
			t.Errorf("%s: stage %+v, want %+v", tc.name, got, want)
		}
	}
}
