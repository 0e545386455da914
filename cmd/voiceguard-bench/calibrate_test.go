package main

import (
	"math"
	"testing"
)

func TestSpeedIsGeometricMeanOverKernels(t *testing.T) {
	double := nominal
	for k := range double {
		double[k] *= 2
	}
	oneSlow := nominal
	oneSlow[0] *= 2
	for _, tc := range []struct {
		name          string
		before, after refTimes
		want          float64
	}{
		{"nominal", nominal, nominal, 1},
		{"every kernel twice as slow", double, double, 0.5},
		{"twice as slow after only", nominal, double, 1 / 1.5},
		{"one kernel twice as slow", oneSlow, oneSlow, math.Pow(2, -1.0/numKernels)},
	} {
		if got := speed(tc.before, tc.after); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: speed %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCalibratorMeasuresAndCloses times every kernel on every goroutine
// count a phase uses, and checks that close returns, which it does only
// once the echo goroutines have ended.
func TestCalibratorMeasuresAndCloses(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for g := 1; g <= maxClients; g++ {
		for k, d := range c.measure(g) {
			if d <= 0 {
				t.Errorf("%d goroutines: kernel %d median %v", g, k, d)
			}
		}
	}
}
