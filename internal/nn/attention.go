package nn

import (
	"math"

	"selsync/internal/tensor"
)

// MultiHeadAttention is scaled dot-product self-attention over rows storing
// T positions of width D (row width T·D), with H heads of width D/H and a
// learned output projection. Causal enables the autoregressive mask used by
// the TransformerLite language model.
//
// The Q/K/V and output projections run as single batch-wide GEMMs over the
// (n·T × D) position-major view of the batch; only the softmax attention
// itself is computed per sample and head. All intermediates are buffers
// owned by the layer and reused across steps, so the steady-state forward
// and backward passes allocate nothing.
//
// The backward pass is written out by hand and validated against finite
// differences in the test suite; see TestAttentionGradCheck.
type MultiHeadAttention struct {
	T, D, H int
	Causal  bool

	Wq, Wk, Wv, Wo *Param

	x *tensor.Matrix // cached input

	// Forward caches/buffers: projections and attention-weighted values
	// in position-major (n·T × D) layout; attn stacks H T×T softmax
	// blocks per sample ((n·H·T) × T).
	q, k, v, concat *tensor.Matrix
	attn            *tensor.Matrix
	y, dx           *tensor.Matrix // batch-major (n × T·D)

	// Backward scratch.
	dq, dk, dv, dconcat *tensor.Matrix
	dA                  tensor.Vector // length-T softmax scratch

	wqView, wkView, wvView, woView, dwView tensor.Matrix
	xrView, yrView, grView, dxView         tensor.Matrix // n·T × D reshape headers
}

// NewMultiHeadAttention declares the layer. dim must be divisible by
// heads.
func NewMultiHeadAttention(name string, seqLen, dim, heads int, causal bool) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: attention dim must divide evenly into heads")
	}
	return &MultiHeadAttention{
		T: seqLen, D: dim, H: heads, Causal: causal,
		Wq: NewParam(name+".Wq", dim*dim),
		Wk: NewParam(name+".Wk", dim*dim),
		Wv: NewParam(name+".Wv", dim*dim),
		Wo: NewParam(name+".Wo", dim*dim),
	}
}

// init draws Xavier-initialized projections, Wq, Wk, Wv, then Wo.
func (a *MultiHeadAttention) init(rng *tensor.RNG) {
	std := math.Sqrt(1 / float64(a.D))
	for _, p := range a.Params() {
		rng.NormVector(p.Data, 0, std)
	}
}

// Forward computes self-attention for the whole batch: three batch-wide
// projection GEMMs, per-sample softmax attention, one output GEMM.
func (a *MultiHeadAttention) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != a.T*a.D {
		panic("nn: attention width mismatch")
	}
	n := x.Rows
	dk := a.D / a.H
	scale := 1 / math.Sqrt(float64(dk))
	wq := a.wqView.View(a.Wq.Data, a.D, a.D)
	wk := a.wkView.View(a.Wk.Data, a.D, a.D)
	wv := a.wvView.View(a.Wv.Data, a.D, a.D)
	wo := a.woView.View(a.Wo.Data, a.D, a.D)

	a.x = x
	xr := a.xrView.View(x.Data, n*a.T, a.D)
	a.q = tensor.EnsureMatrix(a.q, n*a.T, a.D)
	a.k = tensor.EnsureMatrix(a.k, n*a.T, a.D)
	a.v = tensor.EnsureMatrix(a.v, n*a.T, a.D)
	tensor.MatMul(a.q, xr, wq)
	tensor.MatMul(a.k, xr, wk)
	tensor.MatMul(a.v, xr, wv)

	a.attn = tensor.EnsureMatrix(a.attn, n*a.H*a.T, a.T)
	a.concat = tensor.EnsureMatrix(a.concat, n*a.T, a.D)
	a.concat.Zero()
	for s := 0; s < n; s++ {
		for h := 0; h < a.H; h++ {
			off := h * dk
			for i := 0; i < a.T; i++ {
				arow := a.attn.Row((s*a.H+h)*a.T + i)
				qi := a.q.Row(s*a.T + i)[off : off+dk]
				// scores
				maxScore := math.Inf(-1)
				for j := 0; j < a.T; j++ {
					if a.Causal && j > i {
						arow[j] = math.Inf(-1)
						continue
					}
					sc := tensor.Vector(qi).Dot(a.k.Row(s*a.T + j)[off:off+dk]) * scale
					arow[j] = sc
					if sc > maxScore {
						maxScore = sc
					}
				}
				// softmax with max-shift for stability
				var sum float64
				for j := 0; j < a.T; j++ {
					if math.IsInf(arow[j], -1) {
						arow[j] = 0
						continue
					}
					arow[j] = math.Exp(arow[j] - maxScore)
					sum += arow[j]
				}
				for j := 0; j < a.T; j++ {
					arow[j] /= sum
				}
				// weighted sum of V
				out := a.concat.Row(s*a.T + i)[off : off+dk]
				for j := 0; j < a.T; j++ {
					w := arow[j]
					if w == 0 {
						continue
					}
					tensor.Vector(out).Axpy(w, a.v.Row(s*a.T + j)[off:off+dk])
				}
			}
		}
	}

	a.y = tensor.EnsureMatrix(a.y, n, a.T*a.D)
	tensor.MatMul(a.yrView.View(a.y.Data, n*a.T, a.D), a.concat, wo)
	return a.y
}

// Backward propagates through the output projection, the attention softmax
// and the Q/K/V projections, writing all four weight gradients.
func (a *MultiHeadAttention) Backward(grad *tensor.Matrix) *tensor.Matrix {
	n := grad.Rows
	dk := a.D / a.H
	scale := 1 / math.Sqrt(float64(dk))
	wq := a.wqView.View(a.Wq.Data, a.D, a.D)
	wk := a.wkView.View(a.Wk.Data, a.D, a.D)
	wv := a.wvView.View(a.Wv.Data, a.D, a.D)
	wo := a.woView.View(a.Wo.Data, a.D, a.D)

	gr := a.grView.View(grad.Data, n*a.T, a.D)

	// Output projection: y = concat·Wo.
	tensor.MatMulATB(a.dwView.View(a.Wo.Grad, a.D, a.D), a.concat, gr)
	a.dconcat = tensor.EnsureMatrix(a.dconcat, n*a.T, a.D)
	tensor.MatMulABT(a.dconcat, gr, wo)

	a.dq = tensor.EnsureMatrix(a.dq, n*a.T, a.D)
	a.dk = tensor.EnsureMatrix(a.dk, n*a.T, a.D)
	a.dv = tensor.EnsureMatrix(a.dv, n*a.T, a.D)
	a.dq.Zero()
	a.dk.Zero()
	a.dv.Zero()
	a.dA = tensor.EnsureVector(a.dA, a.T)
	for s := 0; s < n; s++ {
		for h := 0; h < a.H; h++ {
			off := h * dk
			for i := 0; i < a.T; i++ {
				arow := a.attn.Row((s*a.H+h)*a.T + i)
				doutI := a.dconcat.Row(s*a.T + i)[off : off+dk]

				// dA_ij = <dout_i, v_j>; dV_j += A_ij · dout_i
				for j := 0; j < a.T; j++ {
					if arow[j] != 0 {
						a.dA[j] = tensor.Vector(doutI).Dot(a.v.Row(s*a.T + j)[off : off+dk])
						tensor.Vector(a.dv.Row(s*a.T + j)[off:off+dk]).Axpy(arow[j], doutI)
					} else {
						a.dA[j] = 0
					}
				}
				// Softmax backward: dS_j = A_j (dA_j − Σ_k dA_k A_k).
				var dot float64
				for j := 0; j < a.T; j++ {
					dot += a.dA[j] * arow[j]
				}
				for j := 0; j < a.T; j++ {
					if arow[j] == 0 {
						continue
					}
					dS := arow[j] * (a.dA[j] - dot) * scale
					// S_ij = scale·<q_i, k_j>
					tensor.Vector(a.dq.Row(s*a.T + i)[off:off+dk]).Axpy(dS, a.k.Row(s*a.T + j)[off:off+dk])
					tensor.Vector(a.dk.Row(s*a.T + j)[off:off+dk]).Axpy(dS, a.q.Row(s*a.T + i)[off:off+dk])
				}
			}
		}
	}

	// Projections: q = x·Wq etc., batch-wide. The first term overwrites
	// the (contents-unspecified) dx buffer; the rest accumulate in place.
	xr := a.xrView.View(a.x.Data, n*a.T, a.D)
	a.dx = tensor.EnsureMatrix(a.dx, n, a.T*a.D)
	dxr := a.dxView.View(a.dx.Data, n*a.T, a.D)
	for idx, t := range []struct {
		dproj *tensor.Matrix
		w     *tensor.Matrix
		p     *Param
	}{{a.dq, wq, a.Wq}, {a.dk, wk, a.Wk}, {a.dv, wv, a.Wv}} {
		tensor.MatMulATB(a.dwView.View(t.p.Grad, a.D, a.D), xr, t.dproj)
		if idx == 0 {
			tensor.MatMulABT(dxr, t.dproj, t.w)
		} else {
			tensor.MatMulABTAcc(dxr, t.dproj, t.w)
		}
	}
	return a.dx
}

// Params returns the four projection matrices.
func (a *MultiHeadAttention) Params() []*Param {
	return []*Param{a.Wq, a.Wk, a.Wv, a.Wo}
}
