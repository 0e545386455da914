package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFig10Fast(t *testing.T) {
	// fig10 is pure arithmetic — a cheap end-to-end check of the CLI
	// plumbing.
	if err := run("fig10", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunEnvs(t *testing.T) {
	if err := run("envs", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6(t *testing.T) {
	if err := run("fig6", 1); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureReportsPerIteration(t *testing.T) {
	calls := 0
	row, err := measure("x", 4, func() error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("fn ran %d times, want 4", calls)
	}
	if row.Name != "x" || row.NsPerOp <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
}

func TestWriteBenchJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table I experiment")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := writeBenchJSON(path, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("output is not a benchRow array: %v", err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
		if seen[r.Name] {
			t.Fatalf("duplicate row %q", r.Name)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{
		"micro/features.Extract", "micro/gmm.MeanLogLikelihood",
		"experiment/table1", "micro/ranging.Recover",
		"micro/protocol.DecodeRequest", "micro/protocol.DecodeVoiceprint",
	} {
		if !seen[want] {
			t.Fatalf("missing row %q", want)
		}
	}
}

func TestCompareBaseline(t *testing.T) {
	base := []benchRow{
		{Name: "micro/x", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "experiment/y", NsPerOp: 1000, AllocsPerOp: 100},
	}
	writeBase := func(t *testing.T) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "base.json")
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("pass within slack", func(t *testing.T) {
		fresh := []benchRow{
			{Name: "micro/x", NsPerOp: 180, AllocsPerOp: 2},
			{Name: "experiment/y", NsPerOp: 2000, AllocsPerOp: 105},
			{Name: "micro/new", NsPerOp: 5, AllocsPerOp: 0},
		}
		if err := compareBaseline(fresh, writeBase(t)); err != nil {
			t.Fatalf("unexpected regression: %v", err)
		}
	})
	t.Run("micro allocs gate strictly", func(t *testing.T) {
		fresh := []benchRow{
			{Name: "micro/x", NsPerOp: 100, AllocsPerOp: 3},
			{Name: "experiment/y", NsPerOp: 1000, AllocsPerOp: 100},
		}
		if err := compareBaseline(fresh, writeBase(t)); err == nil {
			t.Fatal("micro alloc regression accepted")
		}
	})
	t.Run("ns regression beyond slack fails", func(t *testing.T) {
		fresh := []benchRow{
			{Name: "micro/x", NsPerOp: 300, AllocsPerOp: 2},
			{Name: "experiment/y", NsPerOp: 1000, AllocsPerOp: 100},
		}
		if err := compareBaseline(fresh, writeBase(t)); err == nil {
			t.Fatal("ns regression accepted")
		}
	})
	t.Run("ns-exempt row skips the wall-time gate but not allocs", func(t *testing.T) {
		exemptBase := []benchRow{{Name: "micro/gmm.MeanLogLikelihood", NsPerOp: 100, AllocsPerOp: 3}}
		path := filepath.Join(t.TempDir(), "base.json")
		data, err := json.Marshal(exemptBase)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		slow := []benchRow{{Name: "micro/gmm.MeanLogLikelihood", NsPerOp: 100000, AllocsPerOp: 3}}
		if err := compareBaseline(slow, path); err != nil {
			t.Fatalf("exempt row's wall time was gated: %v", err)
		}
		leaky := []benchRow{{Name: "micro/gmm.MeanLogLikelihood", NsPerOp: 100, AllocsPerOp: 4}}
		if err := compareBaseline(leaky, path); err == nil {
			t.Fatal("exempt row's alloc regression accepted")
		}
	})
	t.Run("missing row fails", func(t *testing.T) {
		fresh := []benchRow{{Name: "micro/x", NsPerOp: 100, AllocsPerOp: 2}}
		if err := compareBaseline(fresh, writeBase(t)); err == nil {
			t.Fatal("dropped baseline row accepted")
		}
	})
}
