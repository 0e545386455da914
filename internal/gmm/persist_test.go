package gmm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"voiceguard/internal/evidence"
)

func TestGMMSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := blobs([][]float64{{0, 0}, {5, 5}}, 100, 1, rng)
	g, err := Train(data, TrainConfig{Components: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGMM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical log-likelihoods on sample points.
	for _, x := range data[:10] {
		if a, b := g.LogLikelihood(x), loaded.LogLikelihood(x); a != b {
			t.Fatalf("ll mismatch: %v vs %v", a, b)
		}
	}
}

// TestModelDigestTracksContent pins ModelDigest, the "asv/user/<name>"
// digest of an evidence pack: equal models digest equally, and moving
// one mean moves the digest.
func TestModelDigestTracksContent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGMM(rng, 4, 3, -1)
	a, err := ModelDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	if !evidence.ValidDigest(a) {
		t.Fatalf("malformed digest %q", a)
	}
	clone := g.Clone()
	if b, err := ModelDigest(clone); err != nil || b != a {
		t.Fatalf("clone digests %q (%v), want %q", b, err, a)
	}
	clone.Means[2][1] += 1e-9
	if c, err := ModelDigest(clone); err != nil || c == a {
		t.Fatalf("moved mean digests %q (%v), want a digest other than %q", c, err, a)
	}
}

func TestLoadGMMRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":       "garbage",
		"wrong version":  `{"version":99,"weights":[1],"means":[[0]],"vars":[[1]]}`,
		"empty":          `{"version":1,"weights":[],"means":[],"vars":[]}`,
		"ragged":         `{"version":1,"weights":[1],"means":[[0,0]],"vars":[[1]]}`,
		"negative var":   `{"version":1,"weights":[1],"means":[[0]],"vars":[[-1]]}`,
		"bad weight sum": `{"version":1,"weights":[0.2],"means":[[0]],"vars":[[1]]}`,
		"neg weight":     `{"version":1,"weights":[-0.5,1.5],"means":[[0],[1]],"vars":[[1],[1]]}`,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadGMM(strings.NewReader(payload)); err == nil {
				t.Error("corrupt model accepted")
			}
		})
	}
}

func TestISVSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pool, sessions, _ := sessionData(4, 3, 60, rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 4, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	isv, err := TrainISV(ubm, sessions, ISVConfig{Rank: 2, Relevance: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := isv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadISV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rank() != isv.Rank() {
		t.Errorf("rank = %d, want %d", loaded.Rank(), isv.Rank())
	}
	// Enroll+score must produce identical results across the round trip.
	spkA, err := isv.Enroll(sessions["A"][:2])
	if err != nil {
		t.Fatal(err)
	}
	spkB, err := loaded.Enroll(sessions["A"][:2])
	if err != nil {
		t.Fatal(err)
	}
	sa, err := spkA.Score(sessions["A"][2])
	if err != nil {
		t.Fatal(err)
	}
	sb, err := spkB.Score(sessions["A"][2])
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("score mismatch: %v vs %v", sa, sb)
	}
	if loaded.UBM() == nil {
		t.Error("UBM accessor nil")
	}
}

func TestLoadISVRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":      "x",
		"wrong version": `{"version":9}`,
		"bad relevance": `{"version":1,"ubm":{"version":1,"weights":[1],"means":[[0]],"vars":[[1]]},"u":[],"relevance":0}`,
		"bad direction": `{"version":1,"ubm":{"version":1,"weights":[1],"means":[[0]],"vars":[[1]]},"u":[[1,2]],"relevance":4}`,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadISV(strings.NewReader(payload)); err == nil {
				t.Error("corrupt ISV accepted")
			}
		})
	}
}
