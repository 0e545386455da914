package core

import (
	"math"
	"sync"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/gmm"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// fastFixture is a trained, enrolled GMM-UBM verifier with one genuine
// and one impostor probe — the scenario every fast-path test scores.
// Training runs EM once; tests share the instance and must leave the
// exact path restored (t.Cleanup(v.DisableFastPath)).
type fastFixture struct {
	v        *SpeakerVerifier
	genuine  *audio.Signal
	impostor *audio.Signal
}

var (
	fastOnce sync.Once
	fastFix  *fastFixture
	fastErr  error
)

func loadFastFixture(t *testing.T) *fastFixture {
	t.Helper()
	fastOnce.Do(func() {
		fastFix, fastErr = buildFastFixture(t)
	})
	if fastErr != nil {
		t.Fatal(fastErr)
	}
	t.Cleanup(fastFix.v.DisableFastPath)
	return fastFix
}

func buildFastFixture(t *testing.T) (*fastFixture, error) {
	bg := buildBackground(t, 4, 900)
	// The default 32-component UBM: the ε contract is stated for the
	// production model shape, and truncation error grows as the mixture
	// shrinks (C=4 of 16 drops far more mass than C=4 of 32).
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{Seed: 900})
	if err != nil {
		return nil, err
	}
	rng := newTestRand(901)
	victim := speech.RandomProfile("victim", rng)
	other := speech.RandomProfile("other", rng)
	enroll := renderUtterances(t, victim, "424242", 3, rng)
	if err := v.Enroll("victim", [][]*audio.Signal{enroll}); err != nil {
		return nil, err
	}
	return &fastFixture{
		v:        v,
		genuine:  renderUtterances(t, victim, "424242", 1, rng)[0],
		impostor: renderUtterances(t, other, "424242", 1, rng)[0],
	}, nil
}

func TestFastPathScoresWithinEpsilon(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	exactG, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	exactI, err := v.Score("victim", f.impostor)
	if err != nil {
		t.Fatal(err)
	}
	// The verdict-equality claim below needs the threshold margin to
	// exceed the fast path's error bound; a collapse of this gap is a
	// model-quality regression worth failing on in its own right.
	if gap := exactG - exactI; gap <= 2*gmm.ShortlistEpsilon {
		t.Fatalf("genuine/impostor gap %v too small to separate at ε=%v", gap, gmm.ShortlistEpsilon)
	}

	if err := v.EnableFastPath(FastPathConfig{}); err != nil {
		t.Fatal(err)
	}
	if v.fast == nil || v.fast.topC != gmm.DefaultShortlistC {
		t.Fatalf("fast path state %+v, want shortlist width %d", v.fast, gmm.DefaultShortlistC)
	}
	if v.fast.ubm == nil || v.fast.ubm.Digest() == "" {
		t.Fatal("fast path enabled without a compiled UBM")
	}
	fastG, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	fastI, err := v.Score("victim", f.impostor)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(fastG - exactG); d > gmm.ShortlistEpsilon {
		t.Errorf("genuine |ΔLLR| = %v exceeds ε = %v", d, gmm.ShortlistEpsilon)
	}
	if d := math.Abs(fastI - exactI); d > gmm.ShortlistEpsilon {
		t.Errorf("impostor |ΔLLR| = %v exceeds ε = %v", d, gmm.ShortlistEpsilon)
	}
	// Verdicts agree with the exact path at the midpoint threshold.
	v.Threshold = (exactG + exactI) / 2
	if !v.Verify("victim", f.genuine).Pass {
		t.Error("fast path rejected the genuine probe")
	}
	if v.Verify("victim", f.impostor).Pass {
		t.Error("fast path accepted the impostor probe")
	}

	v.DisableFastPath()
	if v.fast != nil {
		t.Error("DisableFastPath left the fast path on")
	}
	again, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	if again != exactG {
		t.Errorf("exact path not bit-identical after disable: %v vs %v", again, exactG)
	}
}

func TestEnableFastPathValidation(t *testing.T) {
	f := loadFastFixture(t)
	if err := f.v.EnableFastPath(FastPathConfig{TopC: -1}); err == nil {
		t.Error("negative shortlist width accepted")
	}
	if f.v.fast != nil {
		t.Error("failed enable left the fast path on")
	}

	bg := buildBackground(t, 5, 910)
	isv, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{
		Backend: BackendISV, Components: 16, ISVRank: 4, Seed: 910,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := isv.EnableFastPath(FastPathConfig{}); err == nil {
		t.Error("ISV backend accepted the fast path")
	}
}

func TestModelDigestsFastEntry(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	exact, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exact["asv/fast"]; ok {
		t.Fatal("exact path published an asv/fast digest")
	}
	if err := v.EnableFastPath(FastPathConfig{TopC: 4}); err != nil {
		t.Fatal(err)
	}
	at4, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if at4["asv/fast"] == "" {
		t.Fatal("fast path published no asv/fast digest")
	}
	// The provenance digest pins the shortlist width.
	if err := v.EnableFastPath(FastPathConfig{TopC: 8}); err != nil {
		t.Fatal(err)
	}
	at8, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if at8["asv/fast"] == at4["asv/fast"] {
		t.Error("asv/fast digest did not change with the shortlist width")
	}
	// The model digests themselves are path-independent.
	for _, key := range []string{"asv/config", "asv/ubm", "asv/user/victim"} {
		if exact[key] == "" || exact[key] != at4[key] {
			t.Errorf("%s digest changed with the scoring path: %q vs %q", key, exact[key], at4[key])
		}
	}
}

// TestFastPathDigestFollowsReenroll pins the cache key to the model it
// was computed from. A verify that read a user's model just before a
// re-enrollment replaced it finishes its fast-path lookup afterwards;
// the next verify must still compile and score the new model, the one
// the exact path and the evidence digests see.
func TestFastPathDigestFollowsReenroll(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	rng := newTestRand(930)
	user := speech.RandomProfile("staleuser", rng)
	if err := v.Enroll("staleuser", [][]*audio.Signal{renderUtterances(t, user, "313131", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	if err := v.EnableFastPath(FastPathConfig{}); err != nil {
		t.Fatal(err)
	}
	v.usersMu.RLock()
	old := v.users["staleuser"]
	v.usersMu.RUnlock()
	if err := v.Enroll("staleuser", [][]*audio.Signal{renderUtterances(t, user, "575757", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	// The in-flight verify that read the old model completes now.
	if _, err := v.fast.speakerModel("staleuser", old); err != nil {
		t.Fatal(err)
	}
	v.usersMu.RLock()
	cur := v.users["staleuser"]
	v.usersMu.RUnlock()
	sm, err := v.fast.speakerModel("staleuser", cur)
	if err != nil {
		t.Fatal(err)
	}
	digests, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if want := digests["asv/user/staleuser"]; sm.Digest() != want {
		t.Errorf("fast path compiled model %.12s after re-enrollment, want the enrolled %.12s", sm.Digest(), want)
	}
}

func TestFastPathModelCacheAndReenroll(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	rng := newTestRand(920)
	user := speech.RandomProfile("cacheuser", rng)
	if err := v.Enroll("cacheuser", [][]*audio.Signal{renderUtterances(t, user, "171717", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	metrics := gmm.CacheMetrics{
		Hits:   reg.Counter("fastpath_cache_events", telemetry.Labels{"event": "hit"}),
		Misses: reg.Counter("fastpath_cache_events", telemetry.Labels{"event": "miss"}),
	}
	cache := gmm.NewModelCache(4, metrics)
	if err := v.EnableFastPath(FastPathConfig{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	probe := renderUtterances(t, user, "171717", 1, rng)[0]
	for i := 0; i < 2; i++ {
		if _, err := v.Score("cacheuser", probe); err != nil {
			t.Fatal(err)
		}
	}
	if m, h := metrics.Misses.Value(), metrics.Hits.Value(); m != 1 || h != 1 {
		t.Errorf("after two scores: misses=%d hits=%d, want 1/1", m, h)
	}
	// Re-enrollment produces a new model: the digest memo must drop so
	// the next score compiles the fresh model, not the cached stale one.
	if err := v.Enroll("cacheuser", [][]*audio.Signal{renderUtterances(t, user, "989898", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Score("cacheuser", probe); err != nil {
		t.Fatal(err)
	}
	if m := metrics.Misses.Value(); m != 2 {
		t.Errorf("re-enrolled model was not recompiled (misses=%d, want 2)", m)
	}
}
