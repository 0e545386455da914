package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/evidence"
)

// replayPackEnv names the pack a re-executed test binary replays
// through main, so the test observes the command's real exit status.
const replayPackEnv = "VOICEGUARD_TRACE_TEST_REPLAY_PACK"

// TestPackReplayRefusesShortlistPack runs `voiceguard-trace pack replay`
// on a pack whose provenance records a top-C shortlist scorer
// (fast_top_c > 0). The pack verifies, but this build cannot reproduce
// its LLRs, so the command must exit 1 and name the field.
func TestPackReplayRefusesShortlistPack(t *testing.T) {
	if path := os.Getenv(replayPackEnv); path != "" {
		os.Args = []string{"voiceguard-trace", "pack", "replay", path}
		main()
		return
	}
	b := evidence.NewBuilder(time.Unix(0, 0))
	b.SetModels(map[string]string{}, &evidence.Provenance{
		Generator: "server", FieldSeed: 1,
		ASV: &evidence.ASVProvenance{Seed: 1, Roster: 8, Sessions: 2, Utterances: 2, Digits: 6, FastTopC: 8},
	})
	path := filepath.Join(t.TempDir(), "shortlist.zip")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteZip(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPackReplayRefusesShortlistPack$")
	cmd.Env = append(os.Environ(), replayPackEnv+"="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("pack replay: %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "fast_top_c") {
		t.Errorf("pack replay output does not name fast_top_c:\n%s", out)
	}
}
