package speech

import (
	"math/rand"
	"testing"

	"voiceguard/internal/audio"
)

func TestRosterDeterministic(t *testing.T) {
	a := NewRoster(3, 42)
	b := NewRoster(3, 42)
	for i := 0; i < 3; i++ {
		if a.Profile(i).F0Mean != b.Profile(i).F0Mean {
			t.Errorf("speaker %d differs across same-seed rosters", i)
		}
	}
	c := NewRoster(3, 43)
	same := true
	for i := 0; i < 3; i++ {
		if a.Profile(i).F0Mean != c.Profile(i).F0Mean {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical rosters")
	}
}

func TestRosterProfilesCopy(t *testing.T) {
	r := NewRoster(2, 1)
	ps := r.Profiles()
	ps[0].F0Mean = 999
	if r.Profile(0).F0Mean == 999 {
		t.Error("Profiles must return a copy")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRandomDigits(t *testing.T) {
	r := NewRoster(1, 7)
	d := r.RandomDigits(6)
	if len(d) != 6 {
		t.Fatalf("len = %d", len(d))
	}
	for _, c := range d {
		if c < '0' || c > '9' {
			t.Errorf("non-digit %c", c)
		}
	}
}

func TestGenerateCorpus(t *testing.T) {
	r := NewRoster(2, 9)
	utts, err := r.Generate(CorpusConfig{Sessions: 2, UtterancesPerSession: 2, Text: "123456"})
	if err != nil {
		t.Fatal(err)
	}
	if len(utts) != 2*2*2 {
		t.Fatalf("got %d utterances, want 8", len(utts))
	}
	for _, u := range utts {
		if u.Text != "123456" {
			t.Errorf("text = %q", u.Text)
		}
		if u.Audio.RMS() < 0.005 {
			t.Errorf("%s sess %d: near-silent audio (rms=%v)", u.Speaker, u.Session, u.Audio.RMS())
		}
	}
	grouped := BySpeakerSession(utts)
	if len(grouped) != 2 {
		t.Errorf("speakers = %d", len(grouped))
	}
	for name, sessions := range grouped {
		if len(sessions) != 2 || len(sessions[0]) != 2 || len(sessions[1]) != 2 {
			t.Errorf("%s sessions = %d, want 2 of 2 utterances", name, len(sessions))
		}
	}
}

func TestGenerateCorpusRandomText(t *testing.T) {
	r := NewRoster(1, 10)
	utts, err := r.Generate(CorpusConfig{Sessions: 1, UtterancesPerSession: 3, Digits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range utts {
		if len(u.Text) != 4 {
			t.Errorf("text %q, want 4 digits", u.Text)
		}
	}
}

func TestGenerateCorpusValidation(t *testing.T) {
	r := NewRoster(1, 11)
	cases := []CorpusConfig{
		{Sessions: 0, UtterancesPerSession: 1, Digits: 4},
		{Sessions: 1, UtterancesPerSession: 0, Digits: 4},
		{Sessions: 1, UtterancesPerSession: 1},
	}
	for i, cfg := range cases {
		if _, err := r.Generate(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestChannelApply(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	synth, err := NewSynthesizer(testProfile("c"), rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.SayDigits("11")
	if err != nil {
		t.Fatal(err)
	}
	ch := Channel{Gain: 0.5, NoiseRMS: 0.001, LowCut: 100, HighCut: 6000}
	out := ch.Apply(s, rng)
	if out == s {
		t.Error("Apply must return a new signal")
	}
	if out.RMS() >= s.RMS() {
		t.Errorf("gain 0.5 should reduce RMS: %v >= %v", out.RMS(), s.RMS())
	}
	// Zero-filter channel only scales.
	ch2 := Channel{Gain: 2}
	out2 := ch2.Apply(s, rng)
	if out2.RMS() < 1.9*s.RMS() {
		t.Errorf("gain 2 RMS = %v vs %v", out2.RMS(), s.RMS())
	}
}

func TestRandomChannelPlausible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		ch := RandomChannel(rng)
		if ch.Gain <= 0 || ch.NoiseRMS < 0 || ch.LowCut <= 0 || ch.HighCut <= ch.LowCut {
			t.Errorf("implausible channel %+v", ch)
		}
	}
}

// TestBySpeakerSessionGroups checks the speaker → session → utterances
// shape: sessions indexed from 0 to the speaker's highest, a session the
// speaker never recorded left nil, utterances in corpus order.
func TestBySpeakerSessionGroups(t *testing.T) {
	a1first, b2, a0, a1second := &audio.Signal{}, &audio.Signal{}, &audio.Signal{}, &audio.Signal{}
	got := BySpeakerSession([]Utterance{
		{Speaker: "a", Session: 1, Audio: a1first},
		{Speaker: "b", Session: 2, Audio: b2},
		{Speaker: "a", Session: 0, Audio: a0},
		{Speaker: "a", Session: 1, Audio: a1second},
	})
	if len(got) != 2 {
		t.Fatalf("speakers = %d, want 2", len(got))
	}
	if a := got["a"]; len(a) != 2 || len(a[0]) != 1 || a[0][0] != a0 || len(a[1]) != 2 || a[1][0] != a1first || a[1][1] != a1second {
		t.Errorf("speaker a sessions = %v", a)
	}
	if b := got["b"]; len(b) != 3 || b[0] != nil || b[1] != nil || len(b[2]) != 1 || b[2][0] != b2 {
		t.Errorf("speaker b sessions = %v", b)
	}
}
