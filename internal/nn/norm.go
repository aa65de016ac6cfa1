package nn

import (
	"math"

	"selsync/internal/tensor"
)

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned per-feature gain and bias. The zoo uses LayerNorm where the
// paper's models use BatchNorm: it has the same stabilizing role but carries
// no cross-worker running statistics, which would otherwise need their own
// synchronization rule and muddy the aggregation comparison (DESIGN.md
// records this substitution).
type LayerNorm struct {
	Dim  int
	G, B *Param
	Eps  float64

	xhat   *tensor.Matrix
	invStd tensor.Vector
	y, dx  *tensor.Matrix // owned buffers reused across steps
}

// NewLayerNorm declares a LayerNorm over rows of width dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{Dim: dim, G: NewParam(name+".g", dim), B: NewParam(name+".b", dim), Eps: 1e-5}
}

// init sets the gain to 1; the bias stays 0. It draws nothing.
func (l *LayerNorm) init(*tensor.RNG) { l.G.Data.Fill(1) }

// Forward normalizes each row and applies gain/bias.
func (l *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.Dim {
		panic("nn: LayerNorm width mismatch")
	}
	l.y = tensor.EnsureMatrix(l.y, x.Rows, x.Cols)
	y := l.y
	l.xhat = tensor.EnsureMatrix(l.xhat, x.Rows, x.Cols)
	l.invStd = tensor.EnsureVector(l.invStd, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := row.Mean()
		inv := 1 / math.Sqrt(row.VarianceAbout(mu)+l.Eps)
		l.invStd[i] = inv
		xh := l.xhat.Row(i)
		out := y.Row(i)
		for j, v := range row {
			h := (v - mu) * inv
			xh[j] = h
			out[j] = h*l.G.Data[j] + l.B.Data[j]
		}
	}
	return y
}

// Backward implements the standard LayerNorm gradient:
// dx = invStd/N · (N·dxhat − Σdxhat − xhat·Σ(dxhat⊙xhat)) with
// dxhat = dy⊙g. The gain/bias gradients are sums over rows, so their
// windows are cleared first, while they are about to be hot anyway.
func (l *LayerNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	n := float64(l.Dim)
	l.G.Grad.Zero()
	l.B.Grad.Zero()
	l.dx = tensor.EnsureMatrix(l.dx, grad.Rows, grad.Cols)
	dx := l.dx
	for i := 0; i < grad.Rows; i++ {
		dy := grad.Row(i)
		xh := l.xhat.Row(i)
		inv := l.invStd[i]

		var sumDxhat, sumDxhatXhat float64
		for j, g := range dy {
			dxh := g * l.G.Data[j]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh[j]
			l.G.Grad[j] += g * xh[j]
			l.B.Grad[j] += g
		}
		out := dx.Row(i)
		for j, g := range dy {
			dxh := g * l.G.Data[j]
			out[j] = inv / n * (n*dxh - sumDxhat - xh[j]*sumDxhatXhat)
		}
	}
	return dx
}

// Params returns the gain and bias parameters.
func (l *LayerNorm) Params() []*Param { return []*Param{l.G, l.B} }

// Dropout zeroes a random fraction P of activations during training and
// scales the survivors by 1/(1−P) (inverted dropout), so evaluation needs
// no rescaling. Each Dropout owns a deterministic RNG stream: replica state
// outside the arena, read and written through FeedForwardNet.LayerRNG /
// SetLayerRNG so replicas copied from one another drop identically and a
// checkpointed run resumes its mask sequence where it stopped.
type Dropout struct {
	P   float64
	rng *tensor.RNG

	mask  []float64
	y, dx *tensor.Matrix // owned buffers reused across steps
}

// NewDropout builds a Dropout layer with drop probability p in [0, 1) and
// a blank stream.
func NewDropout(p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: Dropout probability must be in [0, 1)")
	}
	return &Dropout{P: p, rng: tensor.NewRNG(0)}
}

// init splits the layer's stream off the init stream.
func (d *Dropout) init(rng *tensor.RNG) { d.rng.SetState(rng.Split().State()) }

// Forward applies the random mask in training mode; identity in eval mode.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.P == 0 {
		d.mask = d.mask[:0]
		return x
	}
	d.y = tensor.EnsureMatrix(d.y, x.Rows, x.Cols)
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float64, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	keep := 1 - d.P
	scale := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
		} else {
			d.mask[i] = 0
		}
		d.y.Data[i] = v * d.mask[i]
	}
	return d.y
}

// Backward applies the cached mask (identity if Forward ran in eval mode).
func (d *Dropout) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if len(d.mask) == 0 {
		return grad
	}
	d.dx = tensor.EnsureMatrix(d.dx, grad.Rows, grad.Cols)
	tensor.Mul(d.dx.Data, grad.Data, tensor.Vector(d.mask))
	return d.dx
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
