package baseline

import (
	"math/rand"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/speech"
)

// corpus renders live and replayed utterance pairs.
func corpus(t testing.TB, n int, seed int64) (live, replayed []*audio.Signal) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := speech.RandomProfile("spk", rng)
		synth, err := speech.NewSynthesizer(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		utt, err := synth.SayDigits("472913")
		if err != nil {
			t.Fatal(err)
		}
		ch := speech.Channel{Gain: 0.8, NoiseRMS: 0.003, LowCut: 90, HighCut: 7200}
		live = append(live, ch.Apply(utt, rng))
		replayed = append(replayed, attack.PlaybackColoration(ch.Apply(utt, rng), rng))
	}
	return live, replayed
}

func TestFeaturesShape(t *testing.T) {
	live, _ := corpus(t, 1, 1)
	f, err := Features(live[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != len(featureBands)+3 {
		t.Errorf("features = %d, want %d", len(f), len(featureBands)+3)
	}
	for i, v := range f {
		if v != v { // NaN check
			t.Errorf("feature %d is NaN", i)
		}
	}
}

func TestFeaturesErrors(t *testing.T) {
	if _, err := Features(nil); err == nil {
		t.Error("nil signal accepted")
	}
	if _, err := Features(&audio.Signal{Rate: 16000}); err == nil {
		t.Error("empty signal accepted")
	}
	silent := audio.NewSignal(1, 16000)
	if _, err := Features(silent); err == nil {
		t.Error("silent signal accepted")
	}
}

func TestTrainErrors(t *testing.T) {
	live, replayed := corpus(t, 2, 2)
	if _, err := Train(nil, replayed, 1); err == nil {
		t.Error("no live class accepted")
	}
	if _, err := Train(live, nil, 1); err == nil {
		t.Error("no replay class accepted")
	}
}

func TestDetectorBetterThanChanceButImperfect(t *testing.T) {
	// The paper's §II point: acoustic-only replay detection works in
	// aggregate but is unreliable per-trial — playback coloration is
	// deliberately subtle. The detector must beat chance clearly, yet
	// make mistakes a physical check would not.
	liveTrain, repTrain := corpus(t, 30, 3)
	d, err := Train(liveTrain, repTrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	liveTest, repTest := corpus(t, 30, 4)
	var correct, errors int
	for _, s := range liveTest {
		score, err := d.Score(s)
		if err != nil {
			t.Fatal(err)
		}
		if score >= 0 {
			correct++
		} else {
			errors++
		}
	}
	for _, s := range repTest {
		score, err := d.Score(s)
		if err != nil {
			t.Fatal(err)
		}
		if score < 0 {
			correct++
		} else {
			errors++
		}
	}
	total := len(liveTest) + len(repTest)
	acc := float64(correct) / float64(total)
	if acc < 0.6 {
		t.Errorf("accuracy %.2f barely above chance", acc)
	}
	if errors == 0 {
		t.Log("note: acoustic baseline perfect on this draw — unexpected but not a failure")
	}
}

func TestScoreOrdering(t *testing.T) {
	liveTrain, repTrain := corpus(t, 30, 5)
	d, err := Train(liveTrain, repTrain, 5)
	if err != nil {
		t.Fatal(err)
	}
	liveTest, repTest := corpus(t, 20, 6)
	var liveMean, repMean float64
	for i := range liveTest {
		ls, err := d.Score(liveTest[i])
		if err != nil {
			t.Fatal(err)
		}
		rs, err := d.Score(repTest[i])
		if err != nil {
			t.Fatal(err)
		}
		liveMean += ls
		repMean += rs
	}
	if liveMean <= repMean {
		t.Errorf("mean live score %v not above mean replay score %v",
			liveMean/float64(len(liveTest)), repMean/float64(len(repTest)))
	}
}
