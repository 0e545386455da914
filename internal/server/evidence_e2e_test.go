package server

// End-to-end evidence round trip: a live server verifies a genuine and a
// replay-attack session, the client downloads each decision's evidence
// pack, the packs verify offline, a single tampered byte breaks
// verification, and replaying a pack through a system rebuilt purely from
// its embedded provenance reproduces the verdicts — identity LLR included
// — bit for bit. Run under -race in CI, this covers the whole evidence
// spine: retainer, pack builder, HTTP handler, client download, digest
// chain, rebuild and replay.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/evidence"
	"voiceguard/internal/evidence/rebuild"
)

// evidenceProvenance is the construction recipe the e2e tests serve with
// and replay from.
func evidenceProvenance(seed int64) evidence.Provenance {
	return evidence.Provenance{
		Generator: "test",
		FieldSeed: seed,
		ASV: &evidence.ASVProvenance{
			Seed: seed, Roster: 6, Sessions: 2, Utterances: 2, Digits: 6,
			Enroll: []evidence.EnrollProvenance{
				{User: "victim", Seed: seed, Passphrase: "472913", Utterances: 4},
			},
		},
	}
}

// evidenceTestServer builds a full pipeline (identity stage included)
// from the given provenance and serves it with evidence export enabled.
func evidenceTestServer(t *testing.T, prov evidence.Provenance, extra ...Option) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := rebuild.System(prov)
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{
		WithDecisionEndpoints(),
		WithEvidenceEndpoint(),
		WithEvidenceProvenance(prov),
	}, extra...)
	srv, err := New(sys, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// evidenceSessions builds one genuine and one replay-attack session for
// the provenance's victim.
func evidenceSessions(t *testing.T, prov evidence.Provenance) (genuine, replayed *core.SessionData) {
	t.Helper()
	victim := rebuild.Profile("victim", prov.FieldSeed)
	sc := attack.Scenario{Distance: 0.06, ClaimedUser: "victim", Seed: prov.FieldSeed}
	var err error
	genuine, err = attack.Genuine(victim, sc)
	if err != nil {
		t.Fatal(err)
	}
	recording, err := attack.Record(victim, "472913", prov.FieldSeed)
	if err != nil {
		t.Fatal(err)
	}
	replaySc := sc
	replaySc.Seed = prov.FieldSeed + 1
	replayed, err = attack.Replay(recording, device.Catalog()[0], replaySc)
	if err != nil {
		t.Fatal(err)
	}
	return genuine, replayed
}

func TestEvidenceRoundTripEndToEnd(t *testing.T) {
	prov := evidenceProvenance(3)
	_, ts := evidenceTestServer(t, prov)
	genuine, replayed := evidenceSessions(t, prov)
	cli := client.New(ts.URL)
	ctx := context.Background()

	genRes, err := cli.VerifyContext(ctx, genuine)
	if err != nil {
		t.Fatal(err)
	}
	if !genRes.Response.Accepted {
		t.Fatalf("genuine rejected: %+v", genRes.Response)
	}
	repRes, err := cli.VerifyContext(ctx, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if repRes.Response.Accepted {
		t.Fatalf("replay attack accepted: %+v", repRes.Response)
	}

	// Download both packs and verify them offline.
	packs := map[string]*evidence.Pack{}
	for _, traceID := range []string{genRes.TraceID, repRes.TraceID} {
		resp, err := http.Get(ts.URL + EvidenceRoute + traceID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("downloading pack %s: status %d, %v", traceID, resp.StatusCode, err)
		}
		p, err := evidence.ReadBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if problems := evidence.Verify(p); len(problems) != 0 {
			for _, pr := range problems {
				t.Errorf("pack %s problem: %s", traceID, pr)
			}
			t.Fatalf("downloaded pack %s failed verification", traceID)
		}
		packs[traceID] = p
	}

	// Tamper one byte of decisions.jsonl and rebuild the zip around the
	// now-stale manifest: verification must fail.
	tampered := packs[genRes.TraceID]
	members := map[string][]byte{}
	for name, raw := range tampered.Raw {
		if name == evidence.ManifestMember {
			continue
		}
		members[name] = append([]byte(nil), raw...)
	}
	dec := members[evidence.DecisionsMember]
	if len(dec) == 0 {
		t.Fatal("pack has no decisions member")
	}
	dec[len(dec)/2] ^= 0x01
	var buf bytes.Buffer
	if err := evidence.WriteZipMembers(&buf, tampered.Manifest, members); err != nil {
		t.Fatal(err)
	}
	reread, err := evidence.ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if problems := evidence.Verify(reread); len(problems) == 0 {
		t.Fatal("single-byte tamper of decisions.jsonl went undetected")
	}

	// Replay the untampered genuine pack on a system rebuilt purely from
	// its provenance: verdict and identity LLR must reproduce bit for bit.
	p := packs[genRes.TraceID]
	sys, err := rebuild.SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuild.CheckModels(p, sys); err != nil {
		t.Fatal(err)
	}
	results, err := rebuild.Replay(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("replayed %d sessions, want 1", len(results))
	}
	r := results[0]
	if !r.Match {
		t.Fatalf("replay diverged: %v", r.Diffs)
	}
	packed, ok := p.Decision(genRes.TraceID)
	if !ok || !packed.Accepted {
		t.Fatalf("packed genuine decision: ok=%v %+v", ok, packed)
	}
	var packedLLR, replayedLLR string
	for _, st := range packed.Stages {
		if st.Stage == "identity" {
			packedLLR = st.ScoreBits
		}
	}
	for _, st := range r.Replayed.Stages {
		if st.Stage == "identity" {
			replayedLLR = st.ScoreBits
		}
	}
	if packedLLR == "" || packedLLR != replayedLLR {
		t.Fatalf("identity LLR bits: packed %q, replayed %q", packedLLR, replayedLLR)
	}

	// The rejected decision's pack replays identically too.
	pr := packs[repRes.TraceID]
	sys2, err := rebuild.SystemFromPack(pr)
	if err != nil {
		t.Fatal(err)
	}
	results2, err := rebuild.Replay(pr, sys2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results2) != 1 || !results2[0].Match {
		t.Fatalf("rejected-decision replay diverged: %+v", results2)
	}
}

// TestEvidenceSpoolOnReject covers the -evidence-dir path: a rejected
// decision spools a verifiable pack to disk; an accepted one does not.
func TestEvidenceSpoolOnReject(t *testing.T) {
	dir := t.TempDir()
	prov := evidence.Provenance{Generator: "test", FieldSeed: 4}
	srv, ts := evidenceTestServer(t, prov, WithEvidenceDir(dir))
	genuine, replayed := evidenceSessions(t, prov)
	cli := client.New(ts.URL)

	genRes, err := cli.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	repRes, err := cli.Verify(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if genRes.Response.Accepted == repRes.Response.Accepted {
		t.Fatalf("want one accept and one reject, got %v/%v",
			genRes.Response.Accepted, repRes.Response.Accepted)
	}

	// Shutdown drains the async spool goroutines.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spool dir holds %v, want exactly the rejected decision's pack", names)
	}
	p, err := evidence.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if problems := evidence.Verify(p); len(problems) != 0 {
		t.Fatalf("spooled pack fails verification: %v", problems)
	}
	d, ok := p.Decision(repRes.TraceID)
	if !ok || d.Accepted {
		t.Fatalf("spooled pack decision: ok=%v %+v", ok, d)
	}
}
