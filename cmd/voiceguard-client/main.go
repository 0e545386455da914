// Command voiceguard-client simulates a mobile client: it records one
// verification session — genuine or one of the attack types — and submits
// it to a running voiceguard-server, printing the decision and timing.
//
// Usage:
//
//	voiceguard-client -server http://127.0.0.1:8443 -mode genuine
//	voiceguard-client -mode replay -speaker 0 -distance 0.06
//	voiceguard-client -mode tube
//	voiceguard-client -stream 127.0.0.1:8444 -mode replay
//
// With -stream the session goes over the binary streaming protocol
// (PROTOCOL.md) instead of one HTTP POST, and the verdict can arrive
// before the upload finishes.
//
// The victim's voice is drawn from -user and -seed. -mode genuine
// therefore speaks with the voice of a server started with
// -enroll victim:seed=N only when the client is given -seed N:
//
//	voiceguard-server -asv -enroll victim:seed=17
//	voiceguard-client -mode genuine -seed 17
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/protocol"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/speech"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8443", "server base URL")
	streamAddr := flag.String("stream", "", "submit over the binary streaming protocol to this host:port instead of HTTP")
	mode := flag.String("mode", "genuine", "genuine | replay | morph | synthesis | imitation | tube | shielded")
	speakerIdx := flag.Int("speaker", 0, "loudspeaker catalog index (0-24) for machine attacks")
	distance := flag.Float64("distance", 0.06, "true sound-source distance in meters")
	user := flag.String("user", "victim", "claimed user")
	seed := flag.Int64("seed", 1, "session seed; it also draws the victim's voice from -user, so -mode genuine speaks with the voice the server enrolled for -enroll user:seed=N only when -seed is N")
	flag.Parse()

	if err := run(*serverURL, *streamAddr, *mode, *speakerIdx, *distance, *user, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "voiceguard-client:", err)
		os.Exit(1)
	}
}

func run(serverURL, streamAddr, mode string, speakerIdx int, distance float64, user string, seed int64) error {
	session, err := buildSession(mode, speakerIdx, distance, user, seed)
	if err != nil {
		return err
	}
	if streamAddr != "" {
		res, err := client.New(serverURL).VerifyStream(context.Background(), streamAddr, session)
		if err != nil {
			return err
		}
		printStreamResult(mode, res)
		return nil
	}
	res, err := client.New(serverURL).Verify(session)
	if err != nil {
		return err
	}
	printResult(mode, res)
	return nil
}

func buildSession(mode string, speakerIdx int, distance float64, user string, seed int64) (*core.SessionData, error) {
	rng := rand.New(rand.NewSource(seed))
	victim := speech.RandomProfile(user, rng)
	sc := attack.Scenario{Distance: distance, ClaimedUser: user, Seed: seed}

	cat := device.Catalog()
	if speakerIdx < 0 || speakerIdx >= len(cat) {
		return nil, fmt.Errorf("speaker index %d outside catalog (0-%d)", speakerIdx, len(cat)-1)
	}
	spk := cat[speakerIdx]

	switch mode {
	case "genuine":
		return attack.Genuine(victim, sc)
	case "replay":
		rec, err := attack.Record(victim, "472913", seed)
		if err != nil {
			return nil, err
		}
		return attack.Replay(rec, spk, sc)
	case "shielded":
		rec, err := attack.Record(victim, "472913", seed)
		if err != nil {
			return nil, err
		}
		return attack.ShieldedReplay(rec, spk, sc)
	case "morph":
		attacker := speech.RandomProfile("attacker", rng)
		return attack.Morph(attacker, victim, speech.ConverterAdvanced, spk, sc)
	case "synthesis":
		return attack.Synthesis(victim, spk, sc)
	case "imitation":
		attacker := speech.RandomProfile("attacker", rng)
		return attack.Imitation(attacker, victim, speech.ImitatorProfessional, sc)
	case "tube":
		rec, err := attack.Record(victim, "472913", seed)
		if err != nil {
			return nil, err
		}
		tube := &soundfield.Tube{OpeningRadius: 0.012, Length: 0.3, LevelAt1m: 62}
		return attack.SoundTube(rec, spk, tube, sc)
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
}

func printStreamResult(mode string, res *client.StreamResult) {
	verdict := "REJECTED"
	if res.Response.Accepted {
		verdict = "ACCEPTED"
	}
	early := ""
	if res.EarlyExit {
		early = ", early exit"
	}
	fmt.Printf("mode=%s: %s in %v (decision after %v, %d/%d frames, %d bytes uploaded%s, trace %s)\n",
		mode, verdict, res.Elapsed, res.TimeToDecision,
		res.FramesSent, res.FramesTotal, res.BytesSent, early, res.TraceID)
	printStages(res.Response)
}

func printResult(mode string, res *client.Result) {
	verdict := "REJECTED"
	if res.Response.Accepted {
		verdict = "ACCEPTED"
	}
	fmt.Printf("mode=%s: %s in %v (server pipeline %v, %d bytes uploaded, trace %s)\n",
		mode, verdict, res.Elapsed, res.ServerElapsed, res.PayloadBytes, res.TraceID)
	printStages(res.Response)
}

func printStages(resp *protocol.VerifyResponse) {
	if resp.FailedStage != "" {
		fmt.Printf("  failed stage: %s\n", resp.FailedStage)
	}
	for _, st := range resp.Stages {
		status := "PASS"
		if !st.Pass {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %-30s score=%+.3f  %6dµs  %s\n", status, st.Stage, st.Score, st.ElapsedUS, st.Detail)
	}
	if resp.Error != "" {
		fmt.Printf("  error: %s\n", resp.Error)
	}
}
