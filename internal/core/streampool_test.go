package core

import (
	"context"
	"slices"
	"testing"
)

// TestStreamPoolKeepsCallerSlices offers one capture channel as a mix of
// blocks AudioBlock lent and slices the caller owns, two of them exactly
// block-sized, plus a loan that is never offered. The joined channel
// must be the chunks in order, and once it is joined the pool of audio
// blocks must hand out none of the caller's slices and not the dropped
// loan: only blocks that were lent and offered go back.
func TestStreamPoolKeepsCallerSlices(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 330})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, err := sys.NewStreamVerifier("pool-caller")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.OfferHello(ctx, "victim", 19000); err != nil {
		t.Fatal(err)
	}
	fill := func(s []float64, from float64) []float64 {
		for i := range s {
			s[i] = from + float64(i)
		}
		return s
	}
	caller := [][]float64{
		fill(make([]float64, audioBlockSamples), 1e6),
		fill(make([]float64, audioBlockSamples), 2e6),
		fill(make([]float64, 100), 3e6),
	}
	var want []float64
	offer := func(s []float64, last bool) {
		t.Helper()
		want = append(want, s...)
		if _, err := v.OfferCapture(ctx, 44100, s, last); err != nil {
			t.Fatal(err)
		}
	}
	a := fill(v.AudioBlock(audioBlockSamples), 0)
	offer(a, false)
	offer(caller[0], false)
	b := fill(v.AudioBlock(10), 4e6)
	offer(b, false)
	offer(caller[1], false)
	dropped := fill(v.AudioBlock(5), 5e6)
	offer(caller[2], true)

	if got := v.capture.Samples; !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("joined capture: %d samples (cap %d), want the %d offered in order", len(got), cap(got), len(want))
	}
	// The offered chunks were copied, so the caller's slices are intact.
	for i, c := range caller {
		if c[0] != float64(i+1)*1e6 {
			t.Fatalf("caller chunk %d modified: starts %v", i, c[0])
		}
	}

	mine := map[*float64]string{&dropped[0]: "the dropped loan"}
	for i := range caller {
		mine[&caller[i][0]] = "a caller slice"
	}
	var taken []*audioBlock
	defer func() {
		for _, blk := range taken {
			audioBlocks.Put(blk)
		}
	}()
	for i := 0; i < 64; i++ {
		blk := audioBlocks.Get().(*audioBlock)
		taken = append(taken, blk)
		if what, ok := mine[&blk[0]]; ok {
			t.Fatalf("the pool handed out %s", what)
		}
	}
}
