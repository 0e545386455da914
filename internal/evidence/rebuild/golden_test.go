package rebuild

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/dsp"
	"voiceguard/internal/evidence"
	"voiceguard/internal/features"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

// goldenSeed is the workload seed of the golden system; goldenUsers is
// the enrolled roster size, as cmd/voiceguard-bench builds it.
const (
	goldenSeed  = 7
	goldenUsers = 16
)

// goldenIdentity pins, across versions of the code, the identity stage's
// output bits for four served voices: the SHA-256 of the MFCC matrix's
// float64 bits and the exact-path log-likelihood ratio's bits. The
// values were recorded from the portable Go loops, before any SIMD
// kernel existed, so a kernel that moves one bit of a feature or a
// score fails here even when it agrees with itself across a build.
var goldenIdentity = []struct {
	name     string
	mfccSHA  string
	llrBits  uint64
	imitator bool
	user     int
}{
	{name: "genuine-user0", user: 0, mfccSHA: "98b9b7dcd8480d91beff1434b90886425737f6fdbacf8a0c33beacab977fe21b", llrBits: 0x403f50316d19777f},
	{name: "genuine-user5", user: 5, mfccSHA: "2f1f38e8976a0651a95552aaff84ba6aefb5601d8ab2fbfc1e12207a1d352422", llrBits: 0x40414ad63ce27272},
	{name: "genuine-user11", user: 11, mfccSHA: "e05fefb78b1170b51137feb5936e7ff130a9e2bf3847871af4a1b6c7a51c28d0", llrBits: 0x403f98fff5eacfff},
	{name: "imitation-user3", user: 3, imitator: true, mfccSHA: "10e9191af0abe4e40027d5c03dc4c5429996855c0c36a973cf9deb427443e0f8", llrBits: 0x40411679ff79dac0},
}

// goldenSTFT is the SHA-256 of the magnitude bits of a 512-point Hann
// STFT of a seeded noise-plus-tone signal, recorded with goldenIdentity.
const goldenSTFT = "e888d82ce5e24aa85036d4603b548dc00b30e19cc08f8fdc2c91a38293f634f1"

// goldenProvenance is the bench's system recipe: ASV trained from seed
// goldenSeed with goldenUsers users enrolled on the passphrase.
func goldenProvenance() evidence.Provenance {
	p := evidence.Provenance{
		Generator: "server",
		FieldSeed: goldenSeed,
		ASV:       &evidence.ASVProvenance{Seed: goldenSeed, Roster: 8, Sessions: 2, Utterances: 2, Digits: 6},
	}
	for u := 0; u < goldenUsers; u++ {
		p.ASV.Enroll = append(p.ASV.Enroll, evidence.EnrollProvenance{
			User: fmt.Sprintf("user%d", u), Seed: goldenSeed*1000 + int64(u) + 1, Passphrase: "472913", Utterances: 4,
		})
	}
	return p
}

// float64sSHA returns the hex SHA-256 of the values' little-endian bits.
func float64sSHA(rows [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenVoice generates one golden session and returns its voice as the
// server decodes it from the wire.
func goldenVoice(t *testing.T, prov evidence.Provenance, user int, imitator bool) *core.SessionData {
	t.Helper()
	e := prov.ASV.Enroll[user]
	victim := Profile(e.User, e.Seed)
	sc := attack.Scenario{Seed: goldenSeed*1000 + 100 + int64(user), ClaimedUser: e.User}
	var s *core.SessionData
	var err error
	if imitator {
		s, err = attack.Imitation(Profile("mallory", 99), victim, speech.ImitatorProfessional, sc)
	} else {
		s, err = attack.Genuine(victim, sc)
	}
	if err != nil {
		t.Fatal(err)
	}
	req, err := protocol.FromSession(s, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := protocol.ToSession(req)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestIdentityGoldenBits holds the MFCC front-end, the exact GMM-UBM
// score and the STFT to the bits recorded from the portable loops.
func TestIdentityGoldenBits(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the 16-user bench system")
	}
	prov := goldenProvenance()
	sys, err := System(prov)
	if err != nil {
		t.Fatal(err)
	}
	mfcc := features.DefaultMFCCConfig()
	mfcc.CMVN = false // the identity stage's front-end (core.SpeakerVerifierConfig)
	for _, g := range goldenIdentity {
		s := goldenVoice(t, prov, g.user, g.imitator)
		frames, err := features.Extract(s.Voice, mfcc)
		if err != nil {
			t.Fatal(err)
		}
		llr, err := sys.Identity.Score(s.ClaimedUser, s.Voice)
		if err != nil {
			t.Fatal(err)
		}
		sha, bits := float64sSHA(frames), math.Float64bits(llr)
		if sha != g.mfccSHA {
			t.Errorf("%s: MFCC bits digest %s, want %s", g.name, sha, g.mfccSHA)
		}
		if bits != g.llrBits {
			t.Errorf("%s: LLR %v bits %#016x, want %#016x (%v)", g.name, llr, bits, g.llrBits, math.Float64frombits(g.llrBits))
		}
	}

	rng := rand.New(rand.NewSource(goldenSeed))
	x := make([]float64, 8000)
	for i := range x {
		x[i] = 0.3*math.Sin(2*math.Pi*1000*float64(i)/16000) + rng.NormFloat64()*0.1
	}
	spec, err := dsp.STFT(x, dsp.STFTConfig{FrameSize: 400, HopSize: 160, FFTSize: 512, SampleRate: 16000})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64sSHA(spec.Frames); got != goldenSTFT {
		t.Errorf("STFT magnitude bits digest %s, want %s", got, goldenSTFT)
	}
}
