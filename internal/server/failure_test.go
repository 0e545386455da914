package server

// Failure-injection tests: malformed and adversarial uploads must yield
// clean HTTP errors, never panics or accepts.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"testing/quick"

	"voiceguard/internal/attack"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

func postVerify(t *testing.T, url string, payload []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/verify", "application/gzip", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func TestVerifyRandomGarbageNeverPanics(t *testing.T) {
	_, ts := testServer(t)
	f := func(junk []byte) bool {
		code := postVerify(t, ts.URL, junk)
		return code == http.StatusBadRequest || code == http.StatusUnprocessableEntity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// corruptedSession returns a valid session request mutated by mutate.
func corruptedSession(t *testing.T, seed int64, mutate func(*protocol.VerifyRequest)) []byte {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(seed)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	mutate(req)
	payload, err := protocol.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestVerifyStructurallyCorruptSessions(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name   string
		mutate func(*protocol.VerifyRequest)
	}{
		{"no gyro", func(r *protocol.VerifyRequest) { r.Gyro = nil }},
		{"no mag", func(r *protocol.VerifyRequest) { r.Mag = nil }},
		{"no field", func(r *protocol.VerifyRequest) { r.Field = nil }},
		{"no voice", func(r *protocol.VerifyRequest) { r.VoiceWAV = nil }},
		{"bad pilot", func(r *protocol.VerifyRequest) { r.PilotHz = -1 }},
		{"truncated capture", func(r *protocol.VerifyRequest) { r.CaptureWAV = r.CaptureWAV[:16] }},
		{"no user", func(r *protocol.VerifyRequest) { r.ClaimedUser = "" }},
		{"inverted sweep window", func(r *protocol.VerifyRequest) {
			r.SweepStart, r.SweepEnd = r.SweepEnd, r.SweepStart
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := corruptedSession(t, int64(500+i), tc.mutate)
			code := postVerify(t, ts.URL, payload)
			switch code {
			case http.StatusBadRequest, http.StatusUnprocessableEntity:
				// clean rejection
			case http.StatusOK:
				// Some mutations still form a verifiable session (e.g. an
				// inverted sweep window); the pipeline must then REJECT.
				// Re-send and decode to check the decision.
				resp, err := http.Post(ts.URL+"/verify", "application/gzip", bytes.NewReader(payload))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var vr protocol.VerifyResponse
				if err := decodeJSON(resp.Body, &vr); err != nil {
					t.Fatal(err)
				}
				if vr.Accepted {
					t.Errorf("corrupt session accepted")
				}
			default:
				t.Errorf("unexpected status %d", code)
			}
		})
	}
}

// decodeJSON decodes a JSON body.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// zeroCaptureRate rewrites the capture WAV's fmt sample rate (and byte
// rate) to 0: a header audio.ReadWAV parses, describing a capture no
// pilot can be demodulated from.
func zeroCaptureRate(t *testing.T, r *protocol.VerifyRequest) {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(string(r.CaptureWAV))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[24:28], 0)
	binary.LittleEndian.PutUint32(raw[28:32], 0)
	r.CaptureWAV = []byte(base64.StdEncoding.EncodeToString(raw))
}

// TestVerifyUndemodulatableCaptureRefused checks that a genuine session
// whose ranging capture cannot be demodulated — a pilot at or above the
// capture's Nyquist frequency, or a capture rate of 0 — is a 400 counted
// under Errors, never a verdict scored on a NaN or aliased displacement.
func TestVerifyUndemodulatableCaptureRefused(t *testing.T) {
	srv, ts := testServer(t)
	cases := []struct {
		name   string
		mutate func(*protocol.VerifyRequest)
	}{
		{"pilot above Nyquist", func(r *protocol.VerifyRequest) { r.PilotHz = 30000 }},
		{"pilot at Nyquist", func(r *protocol.VerifyRequest) { r.PilotHz = ranging.DefaultRate / 2 }},
		{"capture rate 0", func(r *protocol.VerifyRequest) { zeroCaptureRate(t, r) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := corruptedSession(t, 1, tc.mutate)
			if code := postVerify(t, ts.URL, payload); code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
		})
	}
	st := srv.Stats()
	if st.Requests != st.Accepted+st.Rejected+st.Errors+st.DeadlineExceeded+st.Shed {
		t.Errorf("counter invariant broken: %+v", st)
	}
	if st.Errors != int64(len(cases)) || st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want %d errors and no verdicts", st, len(cases))
	}
}
