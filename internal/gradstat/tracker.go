// Package gradstat implements the gradient-significance machinery at the
// heart of SelSync: the relative-gradient-change metric Δ(g_i) of paper
// Eqn. 2 with EWMA smoothing (the RelativeGradChange routine of Alg. 1),
// windowed gradient variance, and the Hessian top-eigenvalue estimator the
// paper uses to justify the first-order proxy (Fig. 4).
package gradstat

import (
	"math"

	"selsync/internal/nn"
	"selsync/internal/stats"
	"selsync/internal/tensor"
)

// Tracker computes Δ(g_i) — the smoothed relative change of the gradient
// L2 norm between consecutive iterations:
//
//	Δ(g_i) = | E[‖∇F_i‖₂] − E[‖∇F_{i−1}‖₂] | / E[‖∇F_{i−1}‖₂]
//
// where E[·] is an EWMA over the raw per-iteration norms. The paper smooths
// with a window of 25 iterations and factor N/100 for an N-worker cluster;
// NewTracker takes both. A windowed variance of the norms is maintained
// alongside as the statistical-efficiency signal of §II-E.
type Tracker struct {
	ewma     *stats.EWMA
	variance *stats.WindowedVariance

	prev    float64
	hasPrev bool
	delta   float64
	maxSeen float64
	count   int
}

// NewTracker builds a tracker with the given EWMA smoothing factor and
// warm-up/variance window.
func NewTracker(alpha float64, window int) *Tracker {
	return &Tracker{
		ewma:     stats.NewEWMA(alpha, window),
		variance: stats.NewWindowedVariance(window),
	}
}

// NewConfiguredTracker builds a tracker from override knobs, filling zero
// values with the paper defaults for an N-worker cluster (window 25,
// smoothing factor workers/100). Every Δ(g_i) tracker in the system — the
// workers' voting trackers and the runner's diagnostics tracker — goes
// through this one defaulting rule so they can never drift apart.
func NewConfiguredTracker(alpha float64, window, workers int) *Tracker {
	if window == 0 {
		window = 25
	}
	if alpha == 0 {
		alpha = float64(workers) / 100
	}
	return NewTracker(alpha, window)
}

// ObserveGradNorm feeds the L2 norm of the current iteration's gradient and
// returns the updated Δ(g_i). The first observation has no predecessor and
// reports 0.
func (t *Tracker) ObserveGradNorm(norm float64) float64 {
	t.count++
	t.variance.Observe(norm)
	smoothed := t.ewma.Observe(norm)
	if !t.hasPrev {
		t.prev = smoothed
		t.hasPrev = true
		t.delta = 0
		return 0
	}
	if t.prev == 0 {
		// Degenerate start (zero gradient); treat any nonzero arrival as
		// maximally significant.
		if smoothed != 0 {
			t.delta = math.Inf(1)
		} else {
			t.delta = 0
		}
	} else {
		t.delta = math.Abs(smoothed-t.prev) / t.prev
	}
	t.prev = smoothed
	if t.delta > t.maxSeen && !math.IsInf(t.delta, 1) {
		t.maxSeen = t.delta
	}
	return t.delta
}

// ObserveParams is a convenience wrapper that computes the flattened
// gradient norm of a parameter list and feeds it to ObserveGradNorm. The
// training runner feeds ObserveGradNorm the same norm itself: it takes each
// parameter's squared norm inside the backward pass, as the parameter's
// gradient is final, and sums them in nn.GradNorm2's order.
func (t *Tracker) ObserveParams(ps []*nn.Param) float64 {
	return t.ObserveGradNorm(math.Sqrt(nn.GradNorm2(ps)))
}

// Delta returns the last Δ(g_i).
func (t *Tracker) Delta() float64 { return t.delta }

// Smoothed returns the current EWMA of the gradient norm.
func (t *Tracker) Smoothed() float64 { return t.ewma.Value() }

// Variance returns the gradient-norm variance over the tracking window —
// the cheap first-order proxy for Hessian eigenvalue movement (Fig. 4).
func (t *Tracker) Variance() float64 { return t.variance.Variance() }

// MaxDelta returns the largest finite Δ(g_i) observed so far — the paper's
// M = max(Δ(g_i)); thresholds δ ≥ M degenerate to pure local-SGD.
func (t *Tracker) MaxDelta() float64 { return t.maxSeen }

// Count returns the number of observations.
func (t *Tracker) Count() int { return t.count }

// Exceeds reports whether the current Δ(g_i) crosses the significance
// threshold δ — the per-worker synchronization vote of Alg. 1 line 10.
// A δ of zero always votes to synchronize (BSP degeneration).
func (t *Tracker) Exceeds(delta float64) bool {
	if delta <= 0 {
		return true
	}
	return t.delta >= delta
}

// TrackerState is a serializable snapshot of a Tracker's mutable state —
// everything ObserveGradNorm touches — so a checkpointed tracker resumes
// the Δ(g_i) series bit-identically. The tracker's configuration (alpha,
// window) is reconstructed by the owner and must match at restore time.
type TrackerState struct {
	EWMA     stats.EWMAState
	Variance stats.WindowedVarianceState
	Prev     float64
	HasPrev  bool
	Delta    float64
	MaxSeen  float64
	Count    int
}

// State snapshots the tracker for checkpointing.
func (t *Tracker) State() TrackerState {
	return TrackerState{
		EWMA:     t.ewma.State(),
		Variance: t.variance.State(),
		Prev:     t.prev,
		HasPrev:  t.hasPrev,
		Delta:    t.delta,
		MaxSeen:  t.maxSeen,
		Count:    t.count,
	}
}

// Restore overwrites the tracker's mutable state from a snapshot.
func (t *Tracker) Restore(s TrackerState) error {
	if err := t.variance.Restore(s.Variance); err != nil {
		return err
	}
	t.ewma.Restore(s.EWMA)
	t.prev, t.hasPrev = s.Prev, s.HasPrev
	t.delta, t.maxSeen, t.count = s.Delta, s.MaxSeen, s.Count
	return nil
}

// Reset clears all state.
func (t *Tracker) Reset() {
	t.ewma.Reset()
	t.variance = stats.NewWindowedVariance(t.ewma.Window)
	t.prev, t.hasPrev, t.delta, t.maxSeen, t.count = 0, false, 0, 0, 0
}

// GradVariance computes the element-wise variance of a flattened gradient
// vector — the per-iteration "gradient variance" series plotted in Fig. 4
// alongside the Hessian eigenvalue.
func GradVariance(grad tensor.Vector) float64 { return grad.Variance() }
