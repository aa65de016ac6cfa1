// Package nn is a from-scratch neural-network library: layers with
// hand-written forward and backward passes, a softmax cross-entropy loss,
// and a small "model zoo" mirroring the architectures the SelSync paper
// evaluates (deep residual, plain convolutional, wide shallow convolutional,
// and a Transformer-encoder language model).
//
// Every layer exposes its parameters as flat vectors (Param), so training
// algorithms can flatten an entire model into one contiguous tensor.Vector —
// the unit of exchange on the simulated cluster, exactly like the
// state_dict/gradient buckets a parameter server ships around.
package nn

import (
	"fmt"

	"selsync/internal/tensor"
)

// Param is one named, flat parameter tensor with its gradient.
// Layers hold structured views (matrices) over Data; aggregation code only
// ever sees the flat slices. A layer's Params are windows of its network's
// Arena: they have no storage until NewArena binds them.
type Param struct {
	Name string
	Data tensor.Vector
	Grad tensor.Vector

	n int // declared length, what NewArena sizes the window by
}

// NewParam declares a parameter of length n. It allocates nothing: Data
// and Grad stay nil until NewArena points them at their arena windows.
func NewParam(name string, n int) *Param { return &Param{Name: name, n: n} }

// Layer is a differentiable module. Forward consumes a row-major batch
// matrix and returns the output batch; Backward consumes the gradient of
// the loss with respect to the output and returns the gradient with respect
// to the input, writing each of its Params' gradients along the way: the
// batch's gradient replaces whatever the window held, so nobody clears
// gradients between steps. Backward must be called after the matching
// training-mode Forward (layers cache activations between the two).
//
// A constructor takes shapes only; the layer computes once its Params are
// bound to an arena (NewFeedForwardNet, or NewArena for a layer used on its
// own), and its initial state is whatever Init draws into them.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// inputGradSkipper is implemented by layers whose Backward spends real work
// on the input gradient alone (Conv2D: Wᵀ·dY and a col2im per sample; Dense:
// a whole dY·Wᵀ). NewFeedForwardNet calls skipInputGrad once on the
// network's first layer — its input is the data batch, nobody reads that
// gradient — after which the layer's Backward returns nil in its place.
// Layers used on their own or nested in another layer keep computing it.
type inputGradSkipper interface{ skipInputGrad() }

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer

	params []*Param // memoized Params() result (the layer list is fixed)
}

// NewSequential builds a Sequential over the given layers, memoizing the
// parameter list up front.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	s.params = s.collectParams()
	return s
}

// Forward runs the chain front to back.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the chain back to front.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameter list of all layers, in layer
// order. The order is deterministic, which keeps flattened vectors
// compatible across worker replicas. The list is memoized — it is read on
// every training step (per worker, by the gradient-norm observation) and
// the layer set never changes after construction.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		s.params = s.collectParams()
	}
	return s.params
}

func (s *Sequential) collectParams() []*Param {
	ps := make([]*Param, 0, 2*len(s.Layers))
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters.
func ParamCount(ps []*Param) int {
	var n int
	for _, p := range ps {
		n += len(p.Data)
	}
	return n
}

// FlattenParams copies all parameter values into dst in order. It panics if
// dst has the wrong length.
func FlattenParams(ps []*Param, dst tensor.Vector) {
	flatten(ps, dst, func(p *Param) tensor.Vector { return p.Data })
}

// SetParams copies src into the parameters in order. It panics if src has
// the wrong length.
func SetParams(ps []*Param, src tensor.Vector) {
	unflatten(ps, src, func(p *Param) tensor.Vector { return p.Data })
}

// FlattenGrads copies all gradients into dst in order. It panics if dst has
// the wrong length.
func FlattenGrads(ps []*Param, dst tensor.Vector) {
	flatten(ps, dst, func(p *Param) tensor.Vector { return p.Grad })
}

// SetGrads copies src into the gradients in order. It panics if src has the
// wrong length.
func SetGrads(ps []*Param, src tensor.Vector) {
	unflatten(ps, src, func(p *Param) tensor.Vector { return p.Grad })
}

// GradNorm2 returns the squared L2 norm of the full flattened gradient —
// the quantity the SelSync significance tracker smooths (paper Eqn. 2).
func GradNorm2(ps []*Param) float64 {
	var s float64
	for _, p := range ps {
		s += p.Grad.Norm2()
	}
	return s
}

func flatten(ps []*Param, dst tensor.Vector, field func(*Param) tensor.Vector) {
	off := 0
	for _, p := range ps {
		src := field(p)
		copy(dst[off:off+len(src)], src)
		off += len(src)
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: flatten length mismatch: params %d, dst %d", off, len(dst)))
	}
}

func unflatten(ps []*Param, src tensor.Vector, field func(*Param) tensor.Vector) {
	off := 0
	for _, p := range ps {
		dst := field(p)
		copy(dst, src[off:off+len(dst)])
		off += len(dst)
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: unflatten length mismatch: params %d, src %d", off, len(src)))
	}
}
