// Command voiceguard-top renders a refreshing terminal view of a running
// verification server: outcome and stage-latency summaries scraped from
// /metrics, and drift scores, SLO burn rates and process resources
// from /debug/drift — the at-a-glance answer to "is the fleet healthy
// and has the evidence distribution moved".
//
// Usage:
//
//	voiceguard-top -addr http://127.0.0.1:8443
//	voiceguard-top -addr http://127.0.0.1:8443 -interval 5s
//	voiceguard-top -once            # print one frame and exit (CI smoke)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"voiceguard/internal/client"
	"voiceguard/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8443", "server base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "print a single frame and exit")
	timeline := flag.Int("timeline", 8, "drift-report timeline slots to request")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := client.New(*addr)
	if *once {
		frame, err := render(ctx, c, *timeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "voiceguard-top:", err)
			os.Exit(1)
		}
		fmt.Print(frame)
		return
	}
	for {
		frame, err := render(ctx, c, *timeline)
		if err != nil {
			frame = fmt.Sprintf("voiceguard-top: %v\n", err)
		}
		// Clear screen + home, then the frame: a flicker-free refresh
		// without taking over the terminal.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		select {
		case <-ctx.Done():
			fmt.Println()
			return
		case <-time.After(*interval):
		}
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseMetrics extracts samples from a Prometheus text exposition. Only
// the subset voiceguard-top displays needs to parse; unparseable lines
// are skipped, never fatal.
func parseMetrics(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		nameAndLabels, valuePart, ok := cutLast(line, " ")
		if !ok {
			continue
		}
		var value float64
		if _, err := fmt.Sscanf(valuePart, "%g", &value); err != nil {
			continue
		}
		s := promSample{value: value, labels: map[string]string{}}
		if open := strings.IndexByte(nameAndLabels, '{'); open >= 0 {
			s.name = nameAndLabels[:open]
			body := strings.TrimSuffix(nameAndLabels[open+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					continue
				}
				s.labels[k] = strings.Trim(v, `"`)
			}
		} else {
			s.name = nameAndLabels
		}
		out = append(out, s)
	}
	return out
}

// cutLast splits at the last occurrence of sep (exemplar-free exposition
// lines may still carry a timestamp; the value is the token before it,
// so split on the first space after the name/labels instead — labels
// never contain unquoted spaces in our exposition, quoted values might,
// so find the space after the closing brace when one exists).
func cutLast(line, sep string) (string, string, bool) {
	if close := strings.IndexByte(line, '}'); close >= 0 {
		rest := line[close+1:]
		if !strings.HasPrefix(rest, sep) {
			return "", "", false
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "", "", false
		}
		return line[:close+1], fields[0], true
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// metricsView aggregates the scraped families voiceguard-top shows.
type metricsView struct {
	outcomes   map[string]float64
	inflight   float64
	stageSum   map[string]float64 // stage → latency seconds sum
	stageCount map[string]float64
	goHeap     float64
	goGC       float64
	goRoutines float64
}

func buildView(samples []promSample) metricsView {
	v := metricsView{
		outcomes:   map[string]float64{},
		stageSum:   map[string]float64{},
		stageCount: map[string]float64{},
	}
	for _, s := range samples {
		switch s.name {
		case "voiceguard_verify_total":
			v.outcomes[s.labels["outcome"]] += s.value
		case "voiceguard_verify_inflight":
			v.inflight = s.value
		case "voiceguard_stage_latency_seconds_sum":
			v.stageSum[s.labels["stage"]] += s.value
		case "voiceguard_stage_latency_seconds_count":
			v.stageCount[s.labels["stage"]] += s.value
		case "voiceguard_go_heap_bytes":
			v.goHeap = s.value
		case "voiceguard_go_gc_pause_us":
			v.goGC = s.value
		case "voiceguard_go_goroutines":
			v.goRoutines = s.value
		}
	}
	return v
}

// render fetches one snapshot of every surface and formats the frame.
func render(ctx context.Context, c *client.Client, timeline int) (string, error) {
	rep, err := c.DriftReport(ctx, timeline)
	if err != nil {
		return "", err
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		return "", err
	}
	view := buildView(parseMetrics(text))

	var b strings.Builder
	fmt.Fprintf(&b, "voiceguard-top — %s — %s\n\n", c.BaseURL,
		time.Unix(rep.GeneratedUnix, 0).UTC().Format(time.RFC3339))

	fmt.Fprintf(&b, "verify   accepted %.0f  rejected %.0f  errors %.0f  deadline %.0f  shed %.0f  inflight %.0f\n",
		view.outcomes["accepted"], view.outcomes["rejected"], view.outcomes["error"],
		view.outcomes["deadline_exceeded"], view.outcomes["shed"], view.inflight)
	fmt.Fprintf(&b, "process  heap %s  goroutines %.0f  gc pause %s  alloc/decision %s\n\n",
		bytesHuman(view.goHeap), view.goRoutines,
		durHuman(view.goGC/1e6), bytesHuman(rep.Resources.AllocPerDecisionBytes))

	b.WriteString("stage             mean latency\n")
	stages := make([]string, 0, len(view.stageCount))
	for st := range view.stageCount {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		mean := 0.0
		if n := view.stageCount[st]; n > 0 {
			mean = view.stageSum[st] / n
		}
		fmt.Fprintf(&b, "  %-14s  %12s\n", st, durHuman(mean))
	}

	fmt.Fprintf(&b, "\ndrift (live %s vs baseline%s, alert PSI > %.2f)\n",
		rep.LiveWindow, baselineNote(rep), rep.AlertPSI)
	b.WriteString("  stage/metric               PSI      KS    live    base\n")
	for _, d := range rep.Drift {
		flag := ""
		if d.Alert {
			flag = "  << ALERT"
		}
		fmt.Fprintf(&b, "  %-24s %6.3f  %6.3f  %6d  %6d%s\n",
			d.Stage+"/"+d.Metric, d.PSI, d.KS, d.LiveCount, d.BaselineCount, flag)
	}

	if len(rep.Burn) > 0 {
		b.WriteString("\nslo burn (budget multiples; >1 = burning budget)\n")
		bySLO := map[string][]telemetry.BurnRate{}
		var names []string
		for _, e := range rep.Burn {
			if _, ok := bySLO[e.SLO]; !ok {
				names = append(names, e.SLO)
			}
			bySLO[e.SLO] = append(bySLO[e.SLO], e)
		}
		for _, name := range names {
			fmt.Fprintf(&b, "  %-13s", name)
			for _, e := range bySLO[name] {
				fmt.Fprintf(&b, "  %s %.2f", e.Window, e.Burn)
			}
			b.WriteString("\n")
		}
	}

	if len(rep.Timeline) > 0 {
		b.WriteString("\ntimeline (per minute)\n")
		b.WriteString("  time      acc  rej  err  latency\n")
		for _, p := range rep.Timeline {
			fmt.Fprintf(&b, "  %s  %3d  %3d  %3d  %s\n",
				time.Unix(p.Unix, 0).UTC().Format("15:04:05"),
				p.Accepted, p.Rejected, p.Errors+p.DeadlineExceeded+p.Shed,
				durHuman(p.LatencyMeanUS/1e6))
		}
	}
	return b.String(), nil
}

func baselineNote(rep *telemetry.DriftReport) string {
	if rep.BaselinePinnedUnix == 0 {
		return " (none pinned)"
	}
	return " pinned " + rep.BaselineWindow
}

// bytesHuman renders a byte count compactly.
func bytesHuman(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// durHuman renders seconds compactly.
func durHuman(seconds float64) string {
	switch {
	case seconds <= 0:
		return "0"
	case seconds < 1e-3:
		return fmt.Sprintf("%.0f µs", seconds*1e6)
	case seconds < 1:
		return fmt.Sprintf("%.1f ms", seconds*1e3)
	default:
		return fmt.Sprintf("%.2f s", seconds)
	}
}
