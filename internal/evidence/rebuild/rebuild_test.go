package rebuild

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/evidence"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/telemetry"
)

// buildPackForTest runs one genuine and one replay-attack session
// through a freshly built (no-ASV) pipeline via the wire codec — the
// same lossy WAV round trip the server path takes — and packs the
// resulting decisions.
func buildPackForTest(t *testing.T, prov evidence.Provenance) *evidence.Pack {
	t.Helper()
	sys, err := System(prov)
	if err != nil {
		t.Fatal(err)
	}
	recorder := telemetry.NewFlightRecorder(8)
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{Recorder: recorder})

	victim := Profile("victim", prov.FieldSeed)
	sc := attack.Scenario{Distance: 0.06, ClaimedUser: "victim", Seed: prov.FieldSeed}
	genuine, err := attack.Genuine(victim, sc)
	if err != nil {
		t.Fatal(err)
	}
	recording, err := attack.Record(victim, "472913", prov.FieldSeed)
	if err != nil {
		t.Fatal(err)
	}
	replaySc := sc
	replaySc.Seed = prov.FieldSeed + 1
	replayed, err := attack.Replay(recording, device.Catalog()[0], replaySc)
	if err != nil {
		t.Fatal(err)
	}

	b := evidence.NewBuilder(time.Unix(0, 0))
	for i, session := range []*core.SessionData{genuine, replayed} {
		req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
		if err != nil {
			t.Fatal(err)
		}
		// Decisions are computed on the decoded request, exactly as the
		// server does, so replay of the packed request is bit-identical.
		decoded, err := protocol.ToSession(req)
		if err != nil {
			t.Fatal(err)
		}
		traceID := []string{"t-genuine", "t-replayattack"}[i]
		decision, err := sys.VerifyContext(context.Background(), traceID, decoded)
		if err != nil {
			t.Fatal(err)
		}
		env, err := protocol.SessionEnvelopeFromRequest(traceID, req, evidence.RedactNone)
		if err != nil {
			t.Fatal(err)
		}
		b.AddDecision(core.DecisionEvidence(decision), recorder.Find(traceID), env)
	}
	digests, err := sys.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	b.SetModels(digests, &prov)
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := evidence.ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if probs := evidence.Verify(p); len(probs) != 0 {
		for _, pr := range probs {
			t.Errorf("pack problem: %s", pr)
		}
		t.Fatal("freshly built pack failed verification")
	}
	return p
}

func TestReplayReproducesVerdicts(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)

	// Rebuild a SECOND system from the pack's provenance alone — the
	// offline replayer's position — and check it digests identically.
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckModels(p, sys); err != nil {
		t.Fatal(err)
	}

	results, err := Replay(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d sessions, want 2", len(results))
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("replay of %s diverged:\n  %s", r.TraceID, strings.Join(r.Diffs, "\n  "))
		}
	}
	// The attack session must actually have been rejected, or the test
	// proves nothing about evidence-carrying rejections.
	d, ok := p.Decision("t-replayattack")
	if !ok || d.Accepted {
		t.Fatalf("replay-attack decision: ok=%v accepted=%v", ok, d.Accepted)
	}
	g, ok := p.Decision("t-genuine")
	if !ok || !g.Accepted {
		t.Fatalf("genuine decision: ok=%v accepted=%v", ok, g.Accepted)
	}
}

func TestCheckModelsDetectsSkew(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	skewed, err := System(evidence.Provenance{Generator: "test", FieldSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = CheckModels(p, skewed)
	if err == nil {
		t.Fatal("model skew went undetected")
	}
	if !strings.Contains(err.Error(), "soundfield/band/") {
		t.Fatalf("skew error does not name the diverging model: %v", err)
	}
}

func TestReplayDetectsTamperedVerdict(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	// Flip the packed genuine verdict: replay must report divergence.
	for i := range p.Decisions {
		if p.Decisions[i].TraceID == "t-genuine" {
			p.Decisions[i].Accepted = false
			p.Decisions[i].FailedStage = "distance"
		}
	}
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Replay(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for _, r := range results {
		if r.TraceID == "t-genuine" && !r.Match {
			diffs = r.Diffs
		}
	}
	if diffs == nil {
		t.Fatal("tampered verdict replayed as a match")
	}
	joined := strings.Join(diffs, "\n")
	for _, field := range []string{"verdict", "failed stage"} {
		if !strings.Contains(joined, field) {
			t.Errorf("divergence report does not name the %s:\n%s", field, joined)
		}
	}
}

func TestReplayRefusesRedactedSessions(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	for i := range p.Sessions.Sessions {
		p.Sessions.Sessions[i].Redaction = evidence.RedactDigests
		p.Sessions.Sessions[i].Audio = []evidence.AudioDigest{{Channel: "voice", Digest: evidence.Digest(nil)}}
	}
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(p, sys); err == nil {
		t.Fatal("replay of a redacted pack succeeded")
	}
}

// TestSystemRefusesShortlistRecipe pins the refusal of packs whose
// producer scored stage 4 through a top-C shortlist: this build has only
// the exact scorer, so rebuilding would silently yield LLRs whose bits
// cannot match the pack's. The recipe still decodes.
func TestSystemRefusesShortlistRecipe(t *testing.T) {
	var prov evidence.Provenance
	doc := `{"generator":"server","field_seed":1,"asv":{"seed":1,"roster":8,"sessions":2,"utterances":2,"digits":6,"fast_top_c":8}}`
	if err := json.Unmarshal([]byte(doc), &prov); err != nil {
		t.Fatalf("shortlist recipe no longer decodes: %v", err)
	}
	if prov.ASV == nil || prov.ASV.FastTopC != 8 {
		t.Fatalf("decoded recipe %+v lost fast_top_c", prov.ASV)
	}
	sys, err := System(prov)
	if err == nil {
		t.Fatalf("rebuilt %v from a shortlist recipe", sys)
	}
	for _, want := range []string{"fast_top_c", "no shortlist scorer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
}

// smallASV is a quick ASV recipe: a small background roster, with the
// given enrollments.
func smallASV(enroll ...evidence.EnrollProvenance) *evidence.ASVProvenance {
	return &evidence.ASVProvenance{Seed: 3, Roster: 4, Sessions: 1, Utterances: 2, Digits: 6, Enroll: enroll}
}

// TestTrainASVMatchesSerialEnroll holds TrainASV to enrolling the
// recipe's entries one after another in recipe order: a user the recipe
// names twice ends up with the later entry's model.
func TestTrainASVMatchesSerialEnroll(t *testing.T) {
	entry := func(user string, seed int64) evidence.EnrollProvenance {
		return evidence.EnrollProvenance{User: user, Seed: seed, Passphrase: "472913", Utterances: 2}
	}
	// Enough entries that parallel.For fans them out, with alice's two
	// entries at opposite ends, in different blocks at any worker count.
	recipe := smallASV(entry("alice", 11))
	for u := 1; u < 9; u++ {
		recipe.Enroll = append(recipe.Enroll, entry(fmt.Sprintf("user%d", u), 11+int64(u)))
	}
	recipe.Enroll = append(recipe.Enroll, entry("alice", 20))
	got, err := TrainASV(recipe)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := TrainASV(smallASV())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range recipe.Enroll {
		if err := Enroll(serial, e); err != nil {
			t.Fatal(err)
		}
	}
	first, err := TrainASV(smallASV(entry("alice", 11)))
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := got.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := serial.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	firstD, err := first.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotD) != len(wantD) {
		t.Fatalf("TrainASV digests %d models, serial enrollment %d", len(gotD), len(wantD))
	}
	for k, v := range wantD {
		if gotD[k] != v {
			t.Errorf("%s: TrainASV %s, serial enrollment %s", k, gotD[k], v)
		}
	}
	if gotD["asv/user/alice"] == firstD["asv/user/alice"] {
		t.Error("alice kept her first entry's model; the later entry must win")
	}
}

// TestTrainASVReturnsFirstFailure pins the error of a recipe with two
// failing entries to the earlier entry's, as a serial enrollment loop
// stopping at the first failure returns it.
func TestTrainASVReturnsFirstFailure(t *testing.T) {
	recipe := smallASV()
	for u := 0; u < 10; u++ {
		recipe.Enroll = append(recipe.Enroll, evidence.EnrollProvenance{
			User: fmt.Sprintf("user%d", u), Seed: 11 + int64(u), Passphrase: "472913", Utterances: 2,
		})
	}
	recipe.Enroll[3].User, recipe.Enroll[3].Utterances = "first-bad", 0
	recipe.Enroll[8].User, recipe.Enroll[8].Utterances = "second-bad", 0
	v, err := TrainASV(recipe)
	if err == nil {
		t.Fatalf("TrainASV enrolled a recipe with failing entries: %v", v)
	}
	if v != nil {
		t.Errorf("TrainASV returned a verifier %v with its error", v)
	}
	if !strings.Contains(err.Error(), `"first-bad"`) || strings.Contains(err.Error(), "second-bad") {
		t.Errorf("error %q is not the first failing entry's", err)
	}
}

// BenchmarkTrainASV times the identity stage's set-up from the bench's
// recipe: background roster synthesis, UBM training and 16 enrollments.
func BenchmarkTrainASV(b *testing.B) {
	recipe := goldenProvenance().ASV
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainASV(recipe); err != nil {
			b.Fatal(err)
		}
	}
}
