// Package opt implements the optimizers and learning-rate schedules the
// paper's workloads use: SGD with momentum and weight decay (ResNet101,
// VGG11, Transformer) and Adam (AlexNet), plus step-decay and
// exponential-decay schedules.
//
// Optimizers operate on nn.Param lists in place, holding their state
// (momentum buffers, Adam moments) in single flat vectors laid out like
// the parameter arena. When the parameters are arena-contiguous
// (nn.ArenaView), an update is one fused SIMD pass over the arena; otherwise
// the same kernels run per parameter window. Updates are elementwise, so
// every Optimizer also steps a range of the arena (StepRange): the training
// runner applies a worker's own update to each block of the arena
// as the backward pass finishes it, and the blocks together give Step's
// bits. Each worker replica owns a private optimizer instance; optimizer
// state is deliberately *not* synchronized between workers — matching the
// paper's setup, where only gradients or parameters cross the network.
package opt

import (
	"fmt"
	"math"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// Optimizer applies one update step from the gradients currently stored in
// the parameter list it was built over. Its update treats every element of
// the flat parameter layout on its own, so a step can be applied range by
// range.
type Optimizer interface {
	// Step applies the update using the given learning rate.
	Step(lr float64)
	// StepRange applies one step's update to the elements [lo, hi) of the
	// flat parameter layout. The ranges of one step must tile [0, Dim) once
	// each before the next step's first range, in any order; together they
	// are Step(lr) bit for bit.
	StepRange(lr float64, lo, hi int)
	// Reset clears internal state (momentum/moment buffers).
	Reset()
}

// State is a serializable snapshot of an optimizer's internal state:
// its flat state buffers in an optimizer-defined order, plus the update
// count for time-dependent rules (Adam's bias correction).
type State struct {
	Vectors [][]float64
	Step    int
}

// Checkpointable is implemented by optimizers whose internal state can be
// captured and restored for checkpoint/resume. Both built-in optimizers
// implement it; custom optimizers must too before a run using them can be
// checkpointed.
type Checkpointable interface {
	// State returns a deep copy of the internal state.
	State() State
	// SetState overwrites the internal state from a snapshot taken on an
	// identically configured optimizer.
	SetState(State) error
}

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay:
//
//	v ← μ·v + g + λ·w
//	w ← w − lr·v
//
// Momentum state lives in one flat buffer spanning every parameter. When
// the parameter list is arena-contiguous (nn.NewArena's layout — every
// zoo model), a step is a single fused tensor.SGDMomentum pass over the
// arena range; otherwise it falls back to the same kernel applied per
// parameter window.
type SGD struct {
	Params      []*nn.Param
	Momentum    float64
	WeightDecay float64

	velocity tensor.Vector // flat momentum state, one window per Param
	offsets  []int         // Param i's window is velocity[offsets[i]:offsets[i+1]]
	data     tensor.Vector // whole-arena views when contiguous
	grad     tensor.Vector
	fused    bool
}

// NewSGD builds an SGD optimizer over params.
func NewSGD(params []*nn.Param, momentum, weightDecay float64) *SGD {
	s := &SGD{Params: params, Momentum: momentum, WeightDecay: weightDecay}
	s.offsets = paramOffsets(params)
	s.data, s.grad, s.fused = nn.ArenaView(params)
	s.Reset()
	return s
}

// Step applies one SGD update: StepRange over the whole arena.
func (s *SGD) Step(lr float64) { s.StepRange(lr, 0, len(s.velocity)) }

// StepRange implements Optimizer.
func (s *SGD) StepRange(lr float64, lo, hi int) {
	if s.fused {
		tensor.SGDMomentum(s.data[lo:hi], s.grad[lo:hi], s.velocity[lo:hi], lr, s.Momentum, s.WeightDecay)
		return
	}
	for i, p := range s.Params {
		off := s.offsets[i]
		a, b := max(lo, off), min(hi, s.offsets[i+1])
		if a < b {
			tensor.SGDMomentum(p.Data[a-off:b-off], p.Grad[a-off:b-off], s.velocity[a:b], lr, s.Momentum, s.WeightDecay)
		}
	}
}

// State implements Checkpointable: a copy of the flat momentum buffer.
func (s *SGD) State() State {
	return State{Vectors: [][]float64{append([]float64(nil), s.velocity...)}}
}

// SetState implements Checkpointable.
func (s *SGD) SetState(st State) error {
	if len(st.Vectors) != 1 || len(st.Vectors[0]) != len(s.velocity) {
		return fmt.Errorf("opt: SGD state shape mismatch (want 1 vector of %d)", len(s.velocity))
	}
	copy(s.velocity, st.Vectors[0])
	return nil
}

// Reset zeroes the momentum buffer (allocated once, reused thereafter).
func (s *SGD) Reset() {
	if s.velocity == nil {
		s.velocity = tensor.NewVector(s.offsets[len(s.Params)])
		return
	}
	s.velocity.Zero()
}

// Adam is the Adam optimizer (Kingma & Ba, 2014) with bias correction.
// Like SGD, both moment buffers are single flat vectors and the update is
// one fused tensor.AdamUpdate pass over the arena range when the parameter
// list is contiguous.
type Adam struct {
	Params []*nn.Param
	Beta1  float64
	Beta2  float64
	Eps    float64

	m, v    tensor.Vector // flat first/second moments, one window per Param
	offsets []int
	data    tensor.Vector
	grad    tensor.Vector
	fused   bool
	t       int

	// The step in progress: its bias-correction factors, and how many
	// elements its ranges have yet to cover (0 between steps, where the
	// next range opens a new step and advances t).
	c1, c2  float64
	pending int
}

// NewAdam builds an Adam optimizer with the canonical defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(params []*nn.Param) *Adam {
	a := &Adam{Params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.offsets = paramOffsets(params)
	a.data, a.grad, a.fused = nn.ArenaView(params)
	a.Reset()
	return a
}

// Step applies one Adam update: StepRange over the whole arena.
func (a *Adam) Step(lr float64) { a.StepRange(lr, 0, len(a.m)) }

// StepRange implements Optimizer. The step count behind the bias
// correction advances once per step, at the step's first range.
func (a *Adam) StepRange(lr float64, lo, hi int) {
	if a.pending == 0 {
		a.t++
		a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
		a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
		a.pending = len(a.m)
	}
	a.pending -= hi - lo
	if a.fused {
		tensor.AdamUpdate(a.data[lo:hi], a.grad[lo:hi], a.m[lo:hi], a.v[lo:hi], lr, a.Beta1, a.Beta2, a.Eps, a.c1, a.c2)
		return
	}
	for i, p := range a.Params {
		off := a.offsets[i]
		l, h := max(lo, off), min(hi, a.offsets[i+1])
		if l < h {
			tensor.AdamUpdate(p.Data[l-off:h-off], p.Grad[l-off:h-off], a.m[l:h], a.v[l:h], lr, a.Beta1, a.Beta2, a.Eps, a.c1, a.c2)
		}
	}
}

// State implements Checkpointable: copies of the two moment buffers plus
// the bias-correction step counter.
func (a *Adam) State() State {
	return State{
		Vectors: [][]float64{
			append([]float64(nil), a.m...),
			append([]float64(nil), a.v...),
		},
		Step: a.t,
	}
}

// SetState implements Checkpointable.
func (a *Adam) SetState(st State) error {
	if len(st.Vectors) != 2 || len(st.Vectors[0]) != len(a.m) || len(st.Vectors[1]) != len(a.v) {
		return fmt.Errorf("opt: Adam state shape mismatch (want 2 vectors of %d)", len(a.m))
	}
	copy(a.m, st.Vectors[0])
	copy(a.v, st.Vectors[1])
	a.t, a.pending = st.Step, 0
	return nil
}

// Reset zeroes the moment buffers (allocated once, reused thereafter) and
// the step counter.
func (a *Adam) Reset() {
	if a.m == nil {
		n := a.offsets[len(a.Params)]
		a.m = tensor.NewVector(n)
		a.v = tensor.NewVector(n)
	} else {
		a.m.Zero()
		a.v.Zero()
	}
	a.t, a.pending = 0, 0
}

// paramOffsets returns the prefix-sum offsets of each parameter's window
// in a flat state buffer; the last entry is the total dimension.
func paramOffsets(params []*nn.Param) []int {
	offs := make([]int, len(params)+1)
	for i, p := range params {
		offs[i+1] = offs[i] + len(p.Data)
	}
	return offs
}

// Schedule maps a step index to a learning rate.
type Schedule interface {
	LR(step int) float64
}

// Constant is a fixed learning rate (AlexNet's fixed 1e-4 in the paper).
type Constant struct{ Rate float64 }

// LR returns the fixed rate.
func (c Constant) LR(int) float64 { return c.Rate }

// StepDecay multiplies the base rate by Factor each time the step crosses
// one of the sorted Milestones — the "decay lr by 10× after epochs 110 and
// 150" schedule used for ResNet101/VGG11.
type StepDecay struct {
	Base       float64
	Factor     float64
	Milestones []int // step indices, ascending
}

// LR returns the decayed rate at the given step.
func (s StepDecay) LR(step int) float64 {
	lr := s.Base
	for _, m := range s.Milestones {
		if step >= m {
			lr *= s.Factor
		}
	}
	return lr
}

// ExpDecay multiplies the base rate by Factor every Interval steps — the
// Transformer schedule ("lr 2.0 decayed by 0.8 every 2000 iterations").
type ExpDecay struct {
	Base     float64
	Factor   float64
	Interval int
}

// LR returns the decayed rate at the given step.
func (e ExpDecay) LR(step int) float64 {
	if e.Interval <= 0 {
		return e.Base
	}
	return e.Base * math.Pow(e.Factor, float64(step/e.Interval))
}
