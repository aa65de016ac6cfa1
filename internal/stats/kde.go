package stats

import (
	"math"
	"sort"
)

// KDE is a one-dimensional Gaussian kernel density estimate. The paper uses
// KDE plots of per-layer gradients (Fig. 3) and of model weights under the
// three aggregation regimes (Fig. 11); the experiment harness evaluates this
// estimator over a fixed grid to regenerate those series.
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE builds an estimator over the samples with Silverman's
// rule-of-thumb bandwidth. The sample slice is copied.
func NewKDE(samples []float64) *KDE {
	c := make([]float64, len(samples))
	copy(c, samples)
	return &KDE{samples: c, bandwidth: silverman(c)}
}

// Density returns the estimated density at x.
func (k *KDE) Density(x float64) float64 {
	n := len(k.samples)
	if n == 0 {
		return 0
	}
	h := k.bandwidth
	if h <= 0 {
		h = 1e-9
	}
	const invSqrt2Pi = 0.3989422804014327
	var s float64
	for _, xi := range k.samples {
		u := (x - xi) / h
		s += math.Exp(-0.5*u*u) * invSqrt2Pi
	}
	return s / (float64(n) * h)
}

// Grid evaluates the density over points evenly spaced points spanning
// [lo, hi] and returns the xs and densities. It panics if points < 2.
func (k *KDE) Grid(lo, hi float64, points int) (xs, ys []float64) {
	if points < 2 {
		panic("stats: KDE.Grid needs at least 2 points")
	}
	xs = make([]float64, points)
	ys = make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = k.Density(xs[i])
	}
	return xs, ys
}

// AutoGrid evaluates the density over a grid spanning the sample range
// padded by two bandwidths on each side.
func (k *KDE) AutoGrid(points int) (xs, ys []float64) {
	lo, hi := minMax(k.samples)
	pad := 2 * k.bandwidth
	if pad == 0 {
		pad = 1
	}
	return k.Grid(lo-pad, hi+pad, points)
}

// silverman computes Silverman's rule-of-thumb bandwidth
// h = 0.9 · min(σ, IQR/1.34) · n^(−1/5), with guards for degenerate inputs.
func silverman(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 1
	}
	var r Running
	for _, x := range samples {
		r.Observe(x)
	}
	sigma := math.Sqrt(r.SampleVariance())
	iqr := Percentile(samples, 75) - Percentile(samples, 25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = math.Abs(samples[0])
		if spread == 0 {
			spread = 1
		}
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// Percentile returns the p-th percentile (0–100) of the samples using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify its input.
func Percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, samples)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func minMax(samples []float64) (lo, hi float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lo, hi = samples[0], samples[0]
	for _, x := range samples[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Histogram counts samples into equal-width bins over [lo, hi]. Samples
// outside the range are clamped into the boundary bins, which matches how
// the paper's density plots truncate outliers.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram with bins equal-width buckets; it panics
// if bins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: NewHistogram needs at least 1 bin")
	}
	if hi <= lo {
		panic("stats: NewHistogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Observe adds one sample.
func (h *Histogram) Observe(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.Total++
}
