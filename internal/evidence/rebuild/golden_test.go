package rebuild

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
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

// goldenModels pins the asv/ entries of the golden system's
// ModelDigests: the UBM and every enrolled user's MAP-adapted model. The
// values were recorded while UBM training, enrollment and ranging
// simulation still ran serially, so a parallel set-up that moves one bit
// of a model fails here.
var goldenModels = map[string]string{
	"asv/ubm":         "sha256:4c2e8348a87f3653c16b21683749f917466dd811b1ba272a56cc021e9044fa1c",
	"asv/user/user0":  "sha256:44fc31db2f7012e521a3eb0fc5ae4f07ec46d0caae28ffc207a5ae0da3aa607c",
	"asv/user/user1":  "sha256:6e05d2ffd71d56b34b4bfc75f4aa2bbd87662d2201ea046d692466370fff2fde",
	"asv/user/user2":  "sha256:1304cdc4d8ab014659cffe947b70d77a2d4ad0a9ff53ebb2edcb568adef978da",
	"asv/user/user3":  "sha256:346fc63cea631ed6d68d9f2f45d799cd8a5e4a4058de9d0db2d339b4fe66543e",
	"asv/user/user4":  "sha256:2ef24e7318a96155a9fafb255c5c80a1939b14e1983840acfd21b9a24dbed707",
	"asv/user/user5":  "sha256:6fd36fff85fa78905851fb62a1276aa0f77b821cb7b2bb7923aff330ccda8aa6",
	"asv/user/user6":  "sha256:f6d28f4d38601518c1d489734a33e8cd37632c989340d0718b0cede5d792c0fa",
	"asv/user/user7":  "sha256:ef7d1cc345790560330f48271cdc91b8a65f0808ed6a6202c32294fcb7948848",
	"asv/user/user8":  "sha256:d554fec5ed8d6c39c8a7f5b5adc98f09cf1085c23819e12cb09c92323782b8f5",
	"asv/user/user9":  "sha256:e89887040daebf60f85479a022abb7fed68ed03171610a55f9eef26752a1313a",
	"asv/user/user10": "sha256:5a3437c32236fa09bc7fe6079536b3af1187d993aea7f3b639ade423fc955de8",
	"asv/user/user11": "sha256:00a44f20ed15a9fcbd4c9a53a26bd43177c3af31bb5c9ca7b9b03761562a561e",
	"asv/user/user12": "sha256:d3f9df4926963e13506e42c65595ddd785b943b1d51a6ab3d771540fbb4548fe",
	"asv/user/user13": "sha256:5e443a53847355e5489c9e1f518616ea33bbc24de7cc03b44d1b2d7bd6084c0c",
	"asv/user/user14": "sha256:6d4d610a3909915c7b6f0694daf9a7b7b77841f8778b74429548ae05f923ddbe",
	"asv/user/user15": "sha256:23d4380e23998b5bfe72ba1825ad52c68cc8d6dccdb40c41e0f77ec790fb8cd8",
}

// goldenSessions pins core.SessionDigest of pool session 0 of a genuine
// and of a replay workload, generated as cmd/voiceguard-bench generates
// its pool from goldenSeed. The sessions carry the simulated ranging
// capture, so these digests also hold ranging.Simulate to its bits.
var goldenSessions = map[string]string{
	"genuine": "sha256:390df8da5a5794f9f235dd6e4bc0bcce773019cbee540d76631b7bc026b386de",
	"replay":  "sha256:27eee4c393194c10c96d8f606519ccb90621457f75fe7039567f829976f4c841",
}

// goldenPoolSession generates pool session j of the bench's genuine or
// replay workload from goldenSeed.
func goldenPoolSession(t *testing.T, prov evidence.Provenance, replay bool, j int) *core.SessionData {
	t.Helper()
	e := prov.ASV.Enroll[j%goldenUsers]
	victim := Profile(e.User, e.Seed)
	var s *core.SessionData
	var err error
	if !replay {
		s, err = attack.Genuine(victim, attack.Scenario{Seed: goldenSeed*1000 + 100 + int64(j), ClaimedUser: victim.Name})
	} else {
		var rec *audio.Signal
		rec, err = attack.Record(victim, e.Passphrase, goldenSeed*1000+200+int64(j))
		if err != nil {
			t.Fatal(err)
		}
		s, err = attack.Replay(rec, device.Catalog()[j], attack.Scenario{
			Seed: goldenSeed*1000 + 300 + int64(j), Distance: 0.05, ClaimedUser: victim.Name,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSetupGoldenBits holds what set-up builds to the bits recorded from
// the serial set-up: the golden system's identity models and one genuine
// and one replay pool session.
func TestSetupGoldenBits(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the 16-user bench system")
	}
	prov := goldenProvenance()
	sys, err := System(prov)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if _, ok := goldenModels[k]; !ok && strings.HasPrefix(k, "asv/") && k != "asv/config" {
			t.Errorf("%s: digest %s not pinned", k, v)
		}
	}
	for k, v := range goldenModels {
		if got[k] != v {
			t.Errorf("%s: digest %s, want %s", k, got[k], v)
		}
	}
	for _, kind := range []string{"genuine", "replay"} {
		s := goldenPoolSession(t, prov, kind == "replay", 0)
		if got := core.SessionDigest(s); got != goldenSessions[kind] {
			t.Errorf("%s session: digest %s, want %s", kind, got, goldenSessions[kind])
		}
	}
}
