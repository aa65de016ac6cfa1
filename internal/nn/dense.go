package nn

import (
	"math"

	"selsync/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b with W of shape in×out.
type Dense struct {
	In, Out int
	W, B    *Param

	x    *tensor.Matrix // cached input for backward
	noDX bool           // first layer of a network: Backward returns nil (see inputGradSkipper)

	// Buffers owned across steps (the steady-state training step
	// allocates nothing): output, input gradient.
	y, dx         *tensor.Matrix
	wView, dwView tensor.Matrix
}

// NewDense declares an in→out fully connected layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{In: in, Out: out, W: NewParam(name+".W", in*out), B: NewParam(name+".b", out)}
}

// init draws He-initialized weights (suited to the ReLU family used
// throughout the zoo); the bias stays zero.
func (d *Dense) init(rng *tensor.RNG) { rng.NormVector(d.W.Data, 0, math.Sqrt(2.0/float64(d.In))) }

// Forward computes x·W + b.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	d.x = x
	w := d.wView.View(d.W.Data, d.In, d.Out)
	d.y = tensor.EnsureMatrix(d.y, x.Rows, d.Out)
	tensor.MatMul(d.y, x, w)
	d.y.AddRowVector(d.B.Data)
	return d.y
}

func (d *Dense) skipInputGrad() { d.noDX = true }

// Backward writes dW = xᵀ·dy and db = column sums of dy, and returns
// dx = dy·Wᵀ.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulATB(d.dwView.View(d.W.Grad, d.In, d.Out), d.x, grad)
	grad.SumColumns(d.B.Grad)
	if d.noDX {
		return nil
	}

	w := d.wView.View(d.W.Data, d.In, d.Out)
	d.dx = tensor.EnsureMatrix(d.dx, grad.Rows, d.In)
	tensor.MatMulABT(d.dx, grad, w)
	return d.dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
