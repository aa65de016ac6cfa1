package nn

import (
	"math"

	"selsync/internal/tensor"
)

// Conv2D is a 2-D convolution over batches stored as flattened CHW rows:
// row layout is channel-major, x[c*H*W + y*W + x]. Stride is 1; Pad adds
// zero padding on all sides. Filter weights have shape F×C×K×K and are kept
// flat in a single Param for aggregation.
//
// The hot path lowers the convolution onto the parallel GEMM kernels via
// im2col/col2im: per sample, Y (F × oh·ow) = W (F × C·K·K) × cols, and the
// backward pass is the pair dW += dY·colsᵀ, dcols = Wᵀ·dY scattered back
// through col2im. A training forward keeps every sample's columns for the
// backward pass; an evaluation forward builds them one sample at a time in
// the first sample's space. The original direct loops are retained as a
// reference implementation (forwardDirect/backwardDirect) and the
// equivalence of the two paths is property-tested across shapes in
// conv_equiv_test.go.
type Conv2D struct {
	C, H, W int // input channels / height / width
	F, K    int // filters, kernel size
	Pad     int

	Wt, B *Param

	// direct routes Forward/Backward through the reference direct-loop
	// implementation instead of im2col+GEMM; tests toggle it to check
	// numerical equivalence.
	direct bool

	x    *tensor.Matrix // cached input
	noDX bool           // first layer of a network: Backward returns nil (see inputGradSkipper)

	// Buffers owned across steps: the im2col columns (a training forward's
	// for every sample, batch × C·K·K·oh·ow, read back by Backward, and
	// colsFor the input they were built from; an evaluation forward's for
	// one sample at a time), and the column-gradient, output and
	// input-gradient matrices.
	cols         tensor.Vector
	colsFor      *tensor.Matrix
	dcols, y, dx *tensor.Matrix

	wView, dwView, yView, dyView, colsView tensor.Matrix // header-only GEMM views
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return c.H + 2*c.Pad - c.K + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return c.W + 2*c.Pad - c.K + 1 }

// NewConv2D declares a Conv2D of filters kernel×kernel filters over
// channels×height×width inputs.
func NewConv2D(name string, channels, height, width, filters, kernel, pad int) *Conv2D {
	c := &Conv2D{
		C: channels, H: height, W: width,
		F: filters, K: kernel, Pad: pad,
		Wt: NewParam(name+".W", filters*channels*kernel*kernel),
		B:  NewParam(name+".b", filters),
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		panic("nn: Conv2D output would be empty")
	}
	return c
}

// init draws He-initialized filters; the bias stays zero.
func (c *Conv2D) init(rng *tensor.RNG) {
	fanIn := float64(c.C * c.K * c.K)
	rng.NormVector(c.Wt.Data, 0, math.Sqrt(2/fanIn))
}

// Forward computes the convolution: im2col + GEMM per sample, plus the
// bias broadcast. The returned matrix is owned by the layer and reused on
// the next call.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.C*c.H*c.W {
		panic("nn: Conv2D input width mismatch")
	}
	c.x = x
	if c.direct {
		return c.forwardDirect(x)
	}
	oh, ow := c.OutH(), c.OutW()
	ohow := oh * ow
	ckk := c.C * c.K * c.K
	c.y = tensor.EnsureMatrix(c.y, x.Rows, c.F*ohow)
	samples := 1 // an evaluation forward reuses sample 0's columns
	c.colsFor = nil
	if train {
		samples, c.colsFor = x.Rows, x
	}
	c.cols = tensor.EnsureVector(c.cols, samples*ckk*ohow)
	w := c.wView.View(c.Wt.Data, c.F, ckk)
	for n := 0; n < x.Rows; n++ {
		cols := c.sampleCols(n % samples)
		tensor.Im2Col(cols, x.Row(n), c.C, c.H, c.W, c.K, c.Pad)
		tensor.MatMul(c.yView.View(c.y.Row(n), c.F, ohow), w, cols)
		out := c.y.Row(n)
		for f := 0; f < c.F; f++ {
			bias := c.B.Data[f]
			seg := out[f*ohow : (f+1)*ohow]
			for i := range seg {
				seg[i] += bias
			}
		}
	}
	return c.y
}

// sampleCols views sample n's columns.
func (c *Conv2D) sampleCols(n int) *tensor.Matrix {
	ckk, ohow := c.C*c.K*c.K, c.OutH()*c.OutW()
	return c.colsView.View(c.cols[n*ckk*ohow:(n+1)*ckk*ohow], ckk, ohow)
}

func (c *Conv2D) skipInputGrad() { c.noDX = true }

// Backward writes the filter/bias gradients — sums over the batch, so their
// windows are cleared first — from the columns the training forward kept,
// and returns the input gradient (owned by the layer, reused on the next
// call).
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	c.Wt.Grad.Zero()
	c.B.Grad.Zero()
	if c.direct {
		return c.backwardDirect(grad)
	}
	if c.colsFor != c.x {
		panic("nn: Conv2D.Backward without a training-mode Forward")
	}
	oh, ow := c.OutH(), c.OutW()
	ohow := oh * ow
	ckk := c.C * c.K * c.K
	w := c.wView.View(c.Wt.Data, c.F, ckk)
	dw := c.dwView.View(c.Wt.Grad, c.F, ckk)
	var dx *tensor.Matrix
	if !c.noDX {
		c.dx = tensor.EnsureMatrix(c.dx, c.x.Rows, c.x.Cols)
		c.dx.Zero() // col2im accumulates into its target row
		c.dcols = tensor.EnsureMatrix(c.dcols, ckk, ohow)
		dx = c.dx
	}
	for n := 0; n < c.x.Rows; n++ {
		dout := grad.Row(n)
		for f := 0; f < c.F; f++ {
			var s float64
			for _, g := range dout[f*ohow : (f+1)*ohow] {
				s += g
			}
			c.B.Grad[f] += s
		}
		dy := c.dyView.View(dout, c.F, ohow)
		tensor.MatMulABTAcc(dw, dy, c.sampleCols(n))
		if dx != nil {
			tensor.MatMulATB(c.dcols, w, dy)
			tensor.Col2Im(dx.Row(n), c.dcols, c.C, c.H, c.W, c.K, c.Pad)
		}
	}
	return dx
}

// forwardDirect is the reference direct convolution the GEMM path is
// validated against.
func (c *Conv2D) forwardDirect(x *tensor.Matrix) *tensor.Matrix {
	oh, ow := c.OutH(), c.OutW()
	y := tensor.NewMatrix(x.Rows, c.F*oh*ow)
	for n := 0; n < x.Rows; n++ {
		in := x.Row(n)
		out := y.Row(n)
		for f := 0; f < c.F; f++ {
			bias := c.B.Data[f]
			wBase := f * c.C * c.K * c.K
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					for ch := 0; ch < c.C; ch++ {
						for ky := 0; ky < c.K; ky++ {
							iy := oy - c.Pad + ky
							if iy < 0 || iy >= c.H {
								continue
							}
							for kx := 0; kx < c.K; kx++ {
								ix := ox - c.Pad + kx
								if ix < 0 || ix >= c.W {
									continue
								}
								s += c.Wt.Data[wBase+ch*c.K*c.K+ky*c.K+kx] * in[ch*c.H*c.W+iy*c.W+ix]
							}
						}
					}
					out[f*oh*ow+oy*ow+ox] = s
				}
			}
		}
	}
	return y
}

// backwardDirect is the reference direct backward pass (Backward has
// cleared the parameter gradients it adds into).
func (c *Conv2D) backwardDirect(grad *tensor.Matrix) *tensor.Matrix {
	oh, ow := c.OutH(), c.OutW()
	dx := tensor.NewMatrix(c.x.Rows, c.x.Cols)
	for n := 0; n < c.x.Rows; n++ {
		in := c.x.Row(n)
		dout := grad.Row(n)
		din := dx.Row(n)
		for f := 0; f < c.F; f++ {
			wBase := f * c.C * c.K * c.K
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dout[f*oh*ow+oy*ow+ox]
					if g == 0 {
						continue
					}
					c.B.Grad[f] += g
					for ch := 0; ch < c.C; ch++ {
						for ky := 0; ky < c.K; ky++ {
							iy := oy - c.Pad + ky
							if iy < 0 || iy >= c.H {
								continue
							}
							for kx := 0; kx < c.K; kx++ {
								ix := ox - c.Pad + kx
								if ix < 0 || ix >= c.W {
									continue
								}
								wi := wBase + ch*c.K*c.K + ky*c.K + kx
								pi := ch*c.H*c.W + iy*c.W + ix
								c.Wt.Grad[wi] += g * in[pi]
								din[pi] += g * c.Wt.Data[wi]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns the filter and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Wt, c.B} }

// MaxPool2D is a 2×2, stride-2 max pool over flattened CHW rows. Odd
// spatial dimensions drop the trailing row/column (floor semantics).
type MaxPool2D struct {
	C, H, W int

	argmax []int // flat input index chosen per output element
	inCols int
	y, dx  *tensor.Matrix // owned buffers reused across steps
}

// NewMaxPool2D builds a pool layer for the given input geometry.
func NewMaxPool2D(channels, height, width int) *MaxPool2D {
	if height < 2 || width < 2 {
		panic("nn: MaxPool2D input too small")
	}
	return &MaxPool2D{C: channels, H: height, W: width}
}

// OutH returns the output height.
func (m *MaxPool2D) OutH() int { return m.H / 2 }

// OutW returns the output width.
func (m *MaxPool2D) OutW() int { return m.W / 2 }

// Forward picks the max of each 2×2 window, seeded with the window's first
// element (so a NaN or -Inf there comes out as itself, and ties keep the
// earlier element). A training forward remembers the winners for the
// backward routing.
func (m *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != m.C*m.H*m.W {
		panic("nn: MaxPool2D input width mismatch")
	}
	m.inCols = x.Cols
	m.y = tensor.EnsureMatrix(m.y, x.Rows, m.C*m.OutH()*m.OutW())
	var arg []int
	if train {
		if cap(m.argmax) < len(m.y.Data) {
			m.argmax = make([]int, len(m.y.Data))
		}
		m.argmax = m.argmax[:len(m.y.Data)]
		arg = m.argmax
	}
	tensor.MaxPool2x2(m.y, arg, x, m.C, m.H, m.W)
	return m.y
}

// Backward routes each output gradient to the winning input position.
func (m *MaxPool2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	m.dx = tensor.EnsureMatrix(m.dx, grad.Rows, m.inCols)
	m.dx.Zero()
	for n := 0; n < grad.Rows; n++ {
		dout := grad.Row(n)
		din := m.dx.Row(n)
		for oi, g := range dout {
			din[m.argmax[n*grad.Cols+oi]] += g
		}
	}
	return m.dx
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }
