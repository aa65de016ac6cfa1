package nn

import (
	"math"

	"selsync/internal/tensor"
)

// Embedding maps integer token ids to learned D-dimensional vectors.
// Input rows are sequences of T token ids stored as floats (the ids are
// recovered with a truncating conversion); output rows are the T embeddings
// concatenated, width T·D. This keeps the whole language model inside the
// matrix-in/matrix-out Layer interface.
type Embedding struct {
	Vocab, T, D int
	Table       *Param

	ids   []int // cached token ids of the last batch
	y, dx *tensor.Matrix
}

// NewEmbedding declares a vocab×dim embedding table over sequences of
// seqLen tokens.
func NewEmbedding(name string, vocab, seqLen, dim int) *Embedding {
	return &Embedding{Vocab: vocab, T: seqLen, D: dim, Table: NewParam(name+".table", vocab*dim)}
}

// init draws the table from N(0, 1/√D).
func (e *Embedding) init(rng *tensor.RNG) {
	rng.NormVector(e.Table.Data, 0, 1/math.Sqrt(float64(e.D)))
}

// Forward gathers rows of the table.
func (e *Embedding) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != e.T {
		panic("nn: Embedding sequence length mismatch")
	}
	e.y = tensor.EnsureMatrix(e.y, x.Rows, e.T*e.D)
	y := e.y
	if cap(e.ids) < x.Rows*e.T {
		e.ids = make([]int, x.Rows*e.T)
	}
	e.ids = e.ids[:x.Rows*e.T]
	for n := 0; n < x.Rows; n++ {
		in := x.Row(n)
		out := y.Row(n)
		for t := 0; t < e.T; t++ {
			id := int(in[t])
			if id < 0 || id >= e.Vocab {
				panic("nn: Embedding token id out of range")
			}
			e.ids[n*e.T+t] = id
			copy(out[t*e.D:(t+1)*e.D], e.Table.Data[id*e.D:(id+1)*e.D])
		}
	}
	return y
}

// Backward scatters gradients into the table rows, cleared first (a token
// may occur many times, and a row no token hit has gradient zero); the
// returned input gradient is zero (token ids are not differentiable).
func (e *Embedding) Backward(grad *tensor.Matrix) *tensor.Matrix {
	e.Table.Grad.Zero()
	for n := 0; n < grad.Rows; n++ {
		g := grad.Row(n)
		for t := 0; t < e.T; t++ {
			id := e.ids[n*e.T+t]
			e.Table.Grad[id*e.D : (id+1)*e.D].Add(g[t*e.D : (t+1)*e.D])
		}
	}
	e.dx = tensor.EnsureMatrix(e.dx, grad.Rows, e.T)
	e.dx.Zero()
	return e.dx
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// PositionalEncoding adds the fixed sinusoidal position signal of the
// original Transformer to each position of a T·D row.
type PositionalEncoding struct {
	T, D int
	pe   tensor.Vector // precomputed T·D signal
	y    *tensor.Matrix
}

// NewPositionalEncoding precomputes the encoding for the given geometry.
func NewPositionalEncoding(seqLen, dim int) *PositionalEncoding {
	p := &PositionalEncoding{T: seqLen, D: dim, pe: tensor.NewVector(seqLen * dim)}
	for t := 0; t < seqLen; t++ {
		for i := 0; i < dim; i++ {
			angle := float64(t) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				p.pe[t*dim+i] = math.Sin(angle)
			} else {
				p.pe[t*dim+i] = math.Cos(angle)
			}
		}
	}
	return p
}

// Forward adds the precomputed signal to every row.
func (p *PositionalEncoding) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != p.T*p.D {
		panic("nn: PositionalEncoding width mismatch")
	}
	p.y = tensor.EnsureMatrix(p.y, x.Rows, x.Cols)
	p.y.Data.CopyFrom(x.Data)
	for n := 0; n < p.y.Rows; n++ {
		p.y.Row(n).Add(p.pe)
	}
	return p.y
}

// Backward is the identity (the signal is constant).
func (p *PositionalEncoding) Backward(grad *tensor.Matrix) *tensor.Matrix { return grad }

// Params returns nil; the encoding is fixed.
func (p *PositionalEncoding) Params() []*Param { return nil }

// Positionwise lifts a Layer over rows of width D to a layer over rows of
// width T·D by reinterpreting each batch row as T independent positions
// (the standard "apply to every position" trick in Transformer blocks).
// The reshape shares storage, so the wrapper adds no copies.
type Positionwise struct {
	T     int
	Inner Layer

	xView, yView, gView, dxView tensor.Matrix // reusable reshape headers
}

// NewPositionwise wraps inner to run per position of a T-long sequence.
func NewPositionwise(seqLen int, inner Layer) *Positionwise {
	return &Positionwise{T: seqLen, Inner: inner}
}

// Forward reshapes (n × T·D) to (n·T × D), applies the inner layer and
// reshapes back.
func (p *Positionwise) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	n := x.Rows
	d := x.Cols / p.T
	y := p.Inner.Forward(p.xView.View(x.Data, n*p.T, d), train)
	return p.yView.View(y.Data, n, p.T*y.Cols)
}

// Backward mirrors Forward's reshaping.
func (p *Positionwise) Backward(grad *tensor.Matrix) *tensor.Matrix {
	n := grad.Rows
	d := grad.Cols / p.T
	dx := p.Inner.Backward(p.gView.View(grad.Data, n*p.T, d))
	return p.dxView.View(dx.Data, n, p.T*dx.Cols)
}

// Params returns the inner layer's parameters.
func (p *Positionwise) Params() []*Param { return p.Inner.Params() }

// Residual adds a skip connection around an inner layer: y = x + f(x).
// The inner layer must preserve width. ResNetLite is built from stacks of
// these; the skip path is what gives the "deep residual generalizes better"
// contrast the paper leans on (its §IV-C).
type Residual struct {
	Inner Layer

	y, dx *tensor.Matrix // owned buffers reused across steps
}

// NewResidual wraps inner with an identity skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + inner(x).
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := r.Inner.Forward(x, train)
	if y.Rows != x.Rows || y.Cols != x.Cols {
		panic("nn: Residual inner layer must preserve shape")
	}
	r.y = tensor.EnsureMatrix(r.y, x.Rows, x.Cols)
	r.y.Data.CopyFrom(y.Data)
	r.y.Data.Add(x.Data)
	return r.y
}

// Backward sums the skip and inner gradients.
func (r *Residual) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := r.Inner.Backward(grad)
	r.dx = tensor.EnsureMatrix(r.dx, grad.Rows, grad.Cols)
	r.dx.Data.CopyFrom(dx.Data)
	r.dx.Data.Add(grad.Data)
	return r.dx
}

// Params returns the inner layer's parameters.
func (r *Residual) Params() []*Param { return r.Inner.Params() }
