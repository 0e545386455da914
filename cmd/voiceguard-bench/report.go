package main

// Run identity, printed output, artifacts, and the all-workloads mode
// that runs each workload in a child process and merges the reports.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"voiceguard/internal/evidence"
	"voiceguard/internal/telemetry"
)

// workloadDigest hashes everything that defines a workload's traffic:
// its name, the phase configuration, the system provenance and every
// pre-encoded request byte.
func workloadDigest(b *bench, phases []phase) string {
	d := evidence.NewDigester()
	prov, _ := json.Marshal(b.prov) // plain struct of strings and numbers: cannot fail
	fmt.Fprintf(d, "%s\n%+v\n%s\n", b.w.name, phases, prov)
	for _, it := range b.pool {
		fmt.Fprintf(d, "%s %d %d\n", it.id, len(it.body), len(it.wire))
		d.Write(it.body)
		d.Write(it.wire)
	}
	return d.Sum()
}

// printReport prints every metric by name and unit, the run's end-to-end
// then per-layer metrics first, and ends with the one-line JSON result:
// the end-to-end metrics with trace 0, the per-layer ones with trace 1.
func printReport(w io.Writer, rep *report, trace int) error {
	fmt.Fprintf(w, "# %s seed=%d digest=%s attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Digest, rep.Attempted, rep.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	printed := make(map[string]bool)
	line := func(name string) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-44s %v %s\n", name, m.Value, m.Unit)
		printed[name] = true
	}
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if _, ok := rep.Metrics[s.name]; ok {
				line(s.name)
			}
		}
	}
	var rest []string
	for name := range rep.Metrics {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name)
	}

	list := endToEnd
	if trace == 1 {
		list = perLayer
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]metric, len(list))}
	for _, s := range list {
		m, ok := rep.Metrics[s.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", rep.Workload, s.name)
		}
		result.Metrics[s.name] = m
	}
	out, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// writeArtifacts writes DIR/<workload>.json and, when the run was traced,
// DIR/<workload>.spans.jsonl in the flight recorder's JSONL format.
func writeArtifacts(dir string, rep *report, records []*telemetry.TraceRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, rep.Workload+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(records) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, rep.Workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// host identifies the machine and build a run measured.
type host struct {
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
}

func hostInfo() host {
	h := host{
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "+dirty"
		}
	}
	return h
}

// results is the results.json document.
type results struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Workloads []*report `json:"workloads"`
}

// runAll runs every workload in a fresh child process, each printing
// its own metrics, then merges their reports into DIR/results.json.
func runAll(cfg config) error {
	if cfg.out == "" {
		return errors.New("-out DIR is required when no -workload is given")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Host: hostInfo(), Seed: cfg.seed, Seconds: cfg.seconds}
	var failed []string
	for _, w := range workloads {
		path := filepath.Join(cfg.out, w.name+".json")
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", "1", "-out", cfg.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		res.Workloads = append(res.Workloads, rep)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, "; "))
	}
	return nil
}
