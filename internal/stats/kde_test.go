package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKDEIntegratesToOne(t *testing.T) {
	samples := []float64{-1, -0.5, 0, 0.5, 1, 0.2, -0.2, 0.7}
	k := NewKDE(samples)
	// Trapezoid rule over a wide grid should integrate to ~1.
	xs, ys := k.Grid(-10, 10, 2001)
	var area float64
	for i := 1; i < len(xs); i++ {
		area += 0.5 * (ys[i] + ys[i-1]) * (xs[i] - xs[i-1])
	}
	if math.Abs(area-1) > 0.01 {
		t.Fatalf("KDE should integrate to 1, got %v", area)
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	samples := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		samples = append(samples, 5+0.1*math.Sin(float64(i)))
	}
	k := NewKDE(samples)
	if k.Density(5) <= k.Density(8) {
		t.Fatal("density at the mode should exceed density far away")
	}
}

func TestKDEEmptyAndDegenerate(t *testing.T) {
	if NewKDE(nil).Density(0) != 0 {
		t.Fatal("empty KDE density should be 0")
	}
	k := NewKDE([]float64{3, 3, 3})
	if k.Density(3) <= 0 {
		t.Fatal("degenerate KDE should still be positive at the atom")
	}
}

func TestKDEExplicitBandwidth(t *testing.T) {
	k := &KDE{samples: []float64{0}, bandwidth: 2}
	// Standard normal kernel scaled by h=2 at x=0: 1/(2·sqrt(2π)).
	want := 1 / (2 * math.Sqrt(2*math.Pi))
	if math.Abs(k.Density(0)-want) > 1e-12 {
		t.Fatalf("density: got %v want %v", k.Density(0), want)
	}
}

func TestKDEGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny grid")
		}
	}()
	NewKDE([]float64{1}).Grid(0, 1, 1)
}

func TestAutoGridCoversSamples(t *testing.T) {
	k := NewKDE([]float64{-2, 0, 3})
	xs, ys := k.AutoGrid(50)
	if len(xs) != 50 || len(ys) != 50 {
		t.Fatal("AutoGrid sizes wrong")
	}
	if xs[0] >= -2 || xs[len(xs)-1] <= 3 {
		t.Fatalf("grid [%v, %v] must pad beyond sample range", xs[0], xs[len(xs)-1])
	}
}

// Property: density is non-negative everywhere and symmetric for symmetric
// samples.
func TestQuickKDENonNegative(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		samples := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			samples = append(samples, math.Mod(x, 100))
		}
		k := NewKDE(samples)
		return k.Density(math.Mod(probe, 100)) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKDESymmetry(t *testing.T) {
	k := NewKDE([]float64{-3, -1, 1, 3})
	for _, x := range []float64{0.5, 1.5, 2.5} {
		if math.Abs(k.Density(x)-k.Density(-x)) > 1e-12 {
			t.Fatalf("symmetric samples should give symmetric density at %v", x)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v): got %v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Interpolated case: P62.5 of [1..5] = 1 + 0.625*4 = 3.5
	if got := Percentile(xs, 62.5); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("interpolated percentile: got %v", got)
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Percentile must not mutate input")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 3, 9.9, -4, 15} {
		h.Observe(x)
	}
	if h.Total != 6 {
		t.Fatalf("total: %d", h.Total)
	}
	// -4 clamps into bin 0, 15 clamps into bin 4.
	if h.Counts[0] != 3 { // 0.5, 1, -4  (1.0 falls in bin 0? 1.0*5/10=0.5 -> bin 0)
		t.Fatalf("bin0: %d (%v)", h.Counts[0], h.Counts)
	}
	if h.Counts[4] != 2 { // 9.9 and clamped 15
		t.Fatalf("bin4: %d (%v)", h.Counts[4], h.Counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
