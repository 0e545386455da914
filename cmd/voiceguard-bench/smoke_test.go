package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/telemetry"
)

// benchmarkDoc is the part of the repository's BENCHMARK.json the code
// must agree with.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := readBenchmarkDoc(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		doc  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		code []spec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", c.what, len(c.doc), len(c.code))
		}
		for i, m := range c.doc {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestSmokeAllWorkloads serves every workload at tiny request counts and
// checks that each BENCHMARK.json metric prints with its unit, that no
// request failed, and that the spans render as flight-recorder JSONL.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	doc := readBenchmarkDoc(t)
	cfg := config{seed: 1, trace: 1, setups: 1, warmup: 100 * time.Millisecond, requests: [2]int{120, 40}, passes: 1}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, records, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Metrics["failed_share"].Value != 0 {
				t.Fatalf("correct=%v failed %d of %d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			for trace, list := range map[int][]struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}{0: doc.EndToEnd, 1: doc.PerLayer} {
				var buf bytes.Buffer
				if err := printReport(&buf, rep, trace); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var result struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !result.Correct || result.Failed != 0 || result.Attempted == 0 || len(result.Metrics) != len(list) {
					t.Errorf("trace %d result %+v", trace, result)
				}
				for _, m := range list {
					re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !re.MatchString(out) {
						t.Errorf("metric %s [%s] not printed", m.Name, m.Unit)
					}
					if got, ok := result.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace %d result lacks %s [%s]: %+v", trace, m.Name, m.Unit, got)
					}
				}
			}

			dir := t.TempDir()
			if err := writeArtifacts(dir, rep, records); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(filepath.Join(dir, w.name+".spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			recs, err := telemetry.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			// Each traced session is the bench's record plus core's own
			// under the same trace ID.
			byID := map[string][]string{}
			for _, r := range recs {
				byID[r.TraceID] = append(byID[r.TraceID], r.Spans[0].Name)
			}
			if len(byID) != poolSize {
				t.Errorf("%d traced requests, want %d", len(byID), poolSize)
			}
			for id, roots := range byID {
				if len(roots) != 2 || !strings.HasPrefix(roots[0], "bench:") || roots[1] != "verify" {
					t.Errorf("%s: record roots %v, want a bench record then core's verify", id, roots)
				}
			}
		})
	}
}
