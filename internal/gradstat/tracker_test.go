package gradstat

import (
	"math"
	"testing"
	"testing/quick"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

func TestTrackerFirstObservationIsZero(t *testing.T) {
	tr := NewTracker(0.16, 25)
	if got := tr.ObserveGradNorm(5); got != 0 {
		t.Fatalf("first Δ must be 0, got %v", got)
	}
}

func TestTrackerConstantNormGivesZeroDelta(t *testing.T) {
	tr := NewTracker(0.16, 5)
	for i := 0; i < 50; i++ {
		d := tr.ObserveGradNorm(3.0)
		if d != 0 {
			t.Fatalf("constant stream must give Δ=0, got %v at step %d", d, i)
		}
	}
}

func TestTrackerDetectsJump(t *testing.T) {
	tr := NewTracker(0.5, 2)
	tr.ObserveGradNorm(1)
	tr.ObserveGradNorm(1)
	d := tr.ObserveGradNorm(10) // EWMA jumps from 1 to 5.5: Δ = 4.5
	if d < 1 {
		t.Fatalf("jump should produce large Δ, got %v", d)
	}
	if tr.MaxDelta() != d {
		t.Fatalf("MaxDelta should track the jump: %v vs %v", tr.MaxDelta(), d)
	}
}

func TestTrackerSmoothingDampsNoise(t *testing.T) {
	// The same noisy stream must produce smaller max Δ with smaller alpha.
	stream := make([]float64, 200)
	rng := tensor.NewRNG(3)
	for i := range stream {
		stream[i] = 5 + rng.Norm()
	}
	run := func(alpha float64) float64 {
		tr := NewTracker(alpha, 25)
		for _, x := range stream {
			tr.ObserveGradNorm(x)
		}
		return tr.MaxDelta()
	}
	if !(run(0.05) < run(0.9)) {
		t.Fatal("heavier smoothing must reduce max Δ")
	}
}

func TestTrackerExceedsThresholdSemantics(t *testing.T) {
	tr := NewTracker(0.9, 1)
	tr.ObserveGradNorm(1)
	tr.ObserveGradNorm(2) // big relative jump
	if !tr.Exceeds(0.1) {
		t.Fatal("Δ above δ must trigger")
	}
	if tr.Exceeds(10) {
		t.Fatal("Δ below δ must not trigger")
	}
	// δ=0 degenerates to BSP: always synchronize.
	fresh := NewTracker(0.9, 1)
	if !fresh.Exceeds(0) {
		t.Fatal("δ=0 must always trigger")
	}
}

func TestTrackerZeroStartThenSignal(t *testing.T) {
	tr := NewTracker(1, 0)
	tr.ObserveGradNorm(0)
	d := tr.ObserveGradNorm(1)
	if !math.IsInf(d, 1) {
		t.Fatalf("0→nonzero must be infinitely significant, got %v", d)
	}
	if tr.MaxDelta() != 0 {
		t.Fatal("infinite Δ must not pollute MaxDelta")
	}
	tr2 := NewTracker(1, 0)
	tr2.ObserveGradNorm(0)
	if d := tr2.ObserveGradNorm(0); d != 0 {
		t.Fatalf("0→0 must be Δ=0, got %v", d)
	}
}

func TestTrackerObserveParams(t *testing.T) {
	ps := []*nn.Param{nn.NewParam("w", 3)}
	nn.NewArena(ps)
	copy(ps[0].Grad, []float64{3, 4, 0}) // norm 5
	tr := NewTracker(1, 0)
	tr.ObserveParams(ps)
	if math.Abs(tr.Smoothed()-5) > 1e-12 {
		t.Fatalf("Smoothed: got %v want 5", tr.Smoothed())
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(0.16, 25)
	for i := 0; i < 30; i++ {
		tr.ObserveGradNorm(float64(i))
	}
	tr.Reset()
	if tr.Count() != 0 || tr.Delta() != 0 || tr.MaxDelta() != 0 || tr.Smoothed() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: Δ is always non-negative and finite for positive norm streams.
func TestQuickTrackerDeltaNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		tr := NewTracker(0.16, 25)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			norm := math.Abs(math.Mod(x, 1e4)) + 0.1
			d := tr.ObserveGradNorm(norm)
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxDelta is the running maximum of observed deltas.
func TestQuickTrackerMaxDelta(t *testing.T) {
	f := func(raw []float64) bool {
		tr := NewTracker(0.3, 5)
		var maxSeen float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			d := tr.ObserveGradNorm(math.Abs(math.Mod(x, 100)) + 0.5)
			if d > maxSeen {
				maxSeen = d
			}
		}
		return math.Abs(tr.MaxDelta()-maxSeen) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGradVariance(t *testing.T) {
	if got := GradVariance(tensor.Vector{1, 1, 1}); got != 0 {
		t.Fatalf("constant grad variance: %v", got)
	}
	if got := GradVariance(tensor.Vector{1, 2, 3, 4}); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("variance: %v", got)
	}
}

// TestConfiguredTrackerDefaults: zero knobs select the paper's defaults for
// the cluster size — window 25, alpha N/100.
func TestConfiguredTrackerDefaults(t *testing.T) {
	got, want := NewConfiguredTracker(0, 0, 16), NewTracker(0.16, 25)
	for i := 0; i < 40; i++ {
		norm := 1 + float64(i%7)/10
		if g, w := got.ObserveGradNorm(norm), want.ObserveGradNorm(norm); g != w {
			t.Fatalf("observation %d: default tracker Δ=%v, NewTracker(0.16, 25) Δ=%v", i, g, w)
		}
	}
	if !got.Exceeds(0) {
		t.Fatal("a warmed-up tracker must exceed δ=0")
	}
}
