// Command benchgen regenerates the paper's tables and figures as text.
//
// Usage:
//
//	benchgen -exp all
//	benchgen -exp fig12a
//	benchgen -exp table1 -seed 7
//	benchgen -bench-json BENCH_pr3.json
//
// Experiments: table1, fig6, fig8, fig10, fig12a, fig12b, fig13, fig14a,
// fig14b, fig15, table4, tube, unconventional, adaptive, dualmic, baseline,
// envs, drift, stream, all.
package main

import (
	"flag"
	"fmt"
	"os"

	"voiceguard/internal/experiment"
	"voiceguard/internal/magnetics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see package doc)")
	seed := flag.Int64("seed", 1, "base random seed")
	benchJSON := flag.String("bench-json", "", "write hot-path benchmark rows, run at GOMAXPROCS=1, as JSON to this path and exit")
	benchBaseline := flag.String("bench-baseline", "", "with -bench-json: fail if the fresh rows regress against this baseline JSON (strict allocs on micro/ rows)")
	driftJSON := flag.String("drift-json", "", "run the attack-matrix drift wave and write its per-series PSI/KS report as JSON to this path, then exit")
	flag.Parse()

	if *driftJSON != "" {
		if err := writeDriftJSON(*driftJSON, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		return
	}
	if *benchJSON != "" {
		rows, err := writeBenchJSON(*benchJSON, *seed)
		if err == nil && *benchBaseline != "" {
			err = compareBaseline(rows, *benchBaseline)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		return
	}
	if *benchBaseline != "" {
		fmt.Fprintln(os.Stderr, "benchgen: -bench-baseline requires -bench-json")
		os.Exit(1)
	}
	if err := run(*exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64) error {
	runners := map[string]func(int64) error{
		"table1": runTable1,
		"fig6":   runFig6,
		"fig8":   runFig8,
		"fig10":  runFig10,
		"fig12a": func(s int64) error { return runSweep("Fig. 12(a) — no shielding", s, magnetics.EnvQuiet, false) },
		"fig13":  runFig13,
		"fig12b": func(s int64) error { return runSweep("Fig. 12(b) — Mu-metal shielding", s, magnetics.EnvQuiet, true) },
		"fig14a": func(s int64) error {
			return runSweep("Fig. 14(a) — near a computer", s, magnetics.EnvNearComputer, false)
		},
		"fig14b":         func(s int64) error { return runSweep("Fig. 14(b) — in a car", s, magnetics.EnvCar, false) },
		"fig15":          runFig15,
		"table4":         runTable4,
		"tube":           runTube,
		"unconventional": runUnconventional,
		"adaptive":       runAdaptive,
		"dualmic":        runDualMic,
		"baseline":       runBaseline,
		"envs":           runEnvs,
		"drift":          runDrift,
		"stream":         runStream,
	}
	if exp == "all" {
		order := []string{
			"table1", "fig6", "fig8", "fig10", "fig12a", "fig12b",
			"fig13", "fig14a", "fig14b", "fig15", "table4", "tube",
			"unconventional", "adaptive", "dualmic", "baseline", "envs",
			"drift", "stream",
		}
		for _, name := range order {
			if err := runners[name](seed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(seed)
}

func runTable1(seed int64) error {
	fmt.Println("== Table I — speaker-identity verification FAR ==")
	rows, err := experiment.RunTableI(experiment.TableIConfig{Seed: seed + 3, UBMComponents: 32})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runFig6(seed int64) error {
	fmt.Println("== Fig. 6 — pilot spectrogram ridge while moving ==")
	pts, err := experiment.RunFig6(seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  t=%5.2f s  peak=%6.0f Hz  mag=%7.1f\n", p.TimeSec, p.PeakHz, p.Magnitude)
	}
	return nil
}

func runFig8(seed int64) error {
	fmt.Println("== Fig. 8 — PCA of mouth vs earphone sound fields ==")
	pts, err := experiment.RunFig8(seed, 40)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  %-9s %8.3f %8.3f\n", p.Class, p.PC1, p.PC2)
	}
	return nil
}

func runFig10(int64) error {
	fmt.Println("== Fig. 10 — polar magnetic field of the Logitech LS21 ==")
	pts := experiment.RunFig10(0)
	for _, p := range pts {
		fmt.Printf("  %3.0f°  %6.1f µT\n", p.AngleDeg, p.FieldUT)
	}
	fmt.Printf("  peak %.1f µT (paper window 30–210 µT)\n", experiment.MaxField(pts))
	return nil
}

func runSweep(title string, seed int64, env magnetics.EnvironmentKind, shielded bool) error {
	fmt.Printf("== %s ==\n", title)
	rows, err := experiment.RunDistanceSweep(experiment.DistanceSweepConfig{
		Seed:        seed,
		Environment: env,
		Shielded:    shielded,
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runFig13(int64) error {
	fmt.Println("== Fig. 13 — bare vs shielded field magnitude ==")
	for _, p := range experiment.RunFig13() {
		fmt.Printf("  %4.0f cm: bare %8.1f µT   shielded %6.1f µT\n", p.DistanceCM, p.BareUT, p.ShieldedUT)
	}
	return nil
}

func runFig15(seed int64) error {
	fmt.Println("== Fig. 15 — authentication time comparison ==")
	rows, err := experiment.RunTiming(experiment.TimingConfig{Users: 4, TrialsPerUser: 3, Seed: seed})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runTable4(seed int64) error {
	fmt.Println("== Table IV battery — 25 loudspeakers at 5 cm ==")
	rows, err := experiment.RunSpeakerBattery(seed)
	if err != nil {
		return err
	}
	detected := 0
	for _, r := range rows {
		if r.Detected {
			detected++
		}
		fmt.Println(" ", r)
	}
	fmt.Printf("  => %d/%d detected\n", detected, len(rows))
	return nil
}

func runTube(seed int64) error {
	fmt.Println("== §VII — sound-tube attacks ==")
	rows, err := experiment.RunSoundTube(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runUnconventional(seed int64) error {
	fmt.Println("== §VII — unconventional loudspeakers ==")
	rows, err := experiment.RunUnconventional(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runAdaptive(seed int64) error {
	fmt.Println("== §VII — adaptive thresholding under EMF ==")
	rows, err := experiment.RunAdaptiveThresholding(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runDualMic(seed int64) error {
	fmt.Println("== §VII — dual-microphone extension (short sweep + SLD) ==")
	rows, err := experiment.RunDualMic(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runBaseline(seed int64) error {
	fmt.Println("== acoustic-only baseline vs physical stages ==")
	rows, err := experiment.RunBaselineComparison(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	return nil
}

func runEnvs(seed int64) error {
	fmt.Println("== ambient environment statistics ==")
	rows, err := experiment.SummarizeEnvironments(seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-14s mean %5.1f µT  swing %5.1f µT\n", r.Kind, r.MeanUT, r.SwingUT)
	}
	return nil
}
