package nn

import (
	"math"
	"testing"

	"selsync/internal/tensor"
)

// checkLayerGradients validates a layer's hand-written backward pass against
// central finite differences of the scalar probe loss L = <c, Forward(x)>.
// Both the input gradient and every parameter gradient are checked (sampling
// large parameters to keep runtime bounded).
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(999)

	y := l.Forward(x, true)
	c := tensor.NewMatrix(y.Rows, y.Cols)
	rng.NormVector(c.Data, 0, 1)

	dx := l.Backward(c)

	lossAt := func() float64 {
		out := l.Forward(x, true)
		return c.Data.Dot(out.Data)
	}

	const eps = 1e-6
	checkOne := func(data tensor.Vector, i int, analytic float64, what string) {
		t.Helper()
		orig := data[i]
		data[i] = orig + eps
		lp := lossAt()
		data[i] = orig - eps
		lm := lossAt()
		data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - analytic)
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if diff/scale > tol {
			t.Fatalf("%s[%d]: analytic %.8g vs numeric %.8g (rel %.3g)",
				what, i, analytic, numeric, diff/scale)
		}
	}

	sample := func(n int) []int {
		const maxChecks = 36
		if n <= maxChecks {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		return rng.Sample(n, maxChecks)
	}

	if dx.Rows != x.Rows {
		t.Fatalf("input gradient rows %d != input rows %d", dx.Rows, x.Rows)
	}
	for _, i := range sample(len(x.Data)) {
		checkOne(x.Data, i, dx.Data[i], "dx")
	}
	for _, p := range l.Params() {
		grads := p.Grad.Clone() // lossAt re-runs Forward but not Backward, grads stay valid
		for _, i := range sample(len(p.Data)) {
			checkOne(p.Data, i, grads[i], "d"+p.Name)
		}
	}
}

func randInput(seed uint64, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	tensor.NewRNG(seed).NormVector(m.Data, 0, 1)
	return m
}

func TestDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	checkLayerGradients(t, bind(rng, NewDense("d", 7, 5)), randInput(2, 4, 7), 1e-6)
}

func TestReLUGradCheck(t *testing.T) {
	x := randInput(3, 3, 9)
	// Push values away from the kink at 0 so finite differences are clean.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] += 0.1
		}
	}
	checkLayerGradients(t, NewReLU(), x, 1e-6)
}

func TestTanhGradCheck(t *testing.T) {
	checkLayerGradients(t, NewTanh(), randInput(4, 3, 6), 1e-6)
}

func TestGELUGradCheck(t *testing.T) {
	checkLayerGradients(t, NewGELU(), randInput(5, 3, 6), 1e-6)
}

func TestLayerNormGradCheck(t *testing.T) {
	l := bind(nil, NewLayerNorm("ln", 10))
	// Non-trivial gain/bias to exercise their gradient paths.
	rng := tensor.NewRNG(6)
	rng.NormVector(l.G.Data, 1, 0.3)
	rng.NormVector(l.B.Data, 0, 0.3)
	checkLayerGradients(t, l, randInput(7, 4, 10), 1e-5)
}

func TestConv2DGradCheck(t *testing.T) {
	rng := tensor.NewRNG(8)
	conv := bind(rng, NewConv2D("c", 2, 5, 5, 3, 3, 1))
	checkLayerGradients(t, conv, randInput(9, 2, 2*5*5), 1e-5)
}

func TestConv2DNoPadGradCheck(t *testing.T) {
	rng := tensor.NewRNG(10)
	conv := bind(rng, NewConv2D("c", 1, 4, 4, 2, 3, 0))
	checkLayerGradients(t, conv, randInput(11, 3, 16), 1e-5)
}

func TestMaxPoolGradCheck(t *testing.T) {
	pool := NewMaxPool2D(2, 4, 4)
	x := randInput(12, 3, 2*4*4)
	checkLayerGradients(t, pool, x, 1e-6)
}

func TestResidualGradCheck(t *testing.T) {
	rng := tensor.NewRNG(13)
	block := bind(rng, NewResidual(NewSequential(
		NewLayerNorm("ln", 6),
		NewDense("fc1", 6, 6),
		NewTanh(),
		NewDense("fc2", 6, 6),
	)))
	checkLayerGradients(t, block, randInput(14, 4, 6), 1e-5)
}

func TestPositionwiseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(15)
	pw := bind(rng, NewPositionwise(3, NewDense("fc", 4, 4)))
	checkLayerGradients(t, pw, randInput(16, 2, 12), 1e-6)
}

func TestAttentionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(17)
	attn := bind(rng, NewMultiHeadAttention("a", 4, 6, 2, false))
	checkLayerGradients(t, attn, randInput(18, 2, 24), 1e-5)
}

func TestCausalAttentionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(19)
	attn := bind(rng, NewMultiHeadAttention("a", 4, 6, 3, true))
	checkLayerGradients(t, attn, randInput(20, 2, 24), 1e-5)
}

func TestEmbeddingGradCheck(t *testing.T) {
	rng := tensor.NewRNG(21)
	emb := bind(rng, NewEmbedding("e", 11, 5, 3))
	// Token-id inputs: integers encoded as floats. The input gradient is
	// structurally zero, so only the table gradient is informative. Ids
	// are stored at n+0.5 so the ±1e-6 probe of the finite-difference
	// helper cannot flip the truncated token (int(3.5±1e-6) is always 3),
	// keeping the numeric input gradient zero as well.
	x := tensor.NewMatrix(3, 5)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(11)) + 0.5
	}
	checkLayerGradients(t, emb, x, 1e-6)
}

func TestPositionalEncodingGradCheck(t *testing.T) {
	pe := NewPositionalEncoding(4, 5)
	checkLayerGradients(t, pe, randInput(23, 3, 20), 1e-6)
}

func TestSequentialCompositeGradCheck(t *testing.T) {
	rng := tensor.NewRNG(24)
	seq := bind(rng, NewSequential(
		NewConv2D("c", 1, 4, 4, 2, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 4, 4),
		NewDense("fc", 8, 5),
	))
	x := randInput(25, 3, 16)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*0.9 + 0.2 // keep pre-activations off the ReLU kink
	}
	checkLayerGradients(t, seq, x, 1e-4)
}

// TestTransformerBlockGradCheck exercises the full pre-norm encoder block
// composition used by TransformerLite (minus dropout, which is stochastic).
func TestTransformerBlockGradCheck(t *testing.T) {
	rng := tensor.NewRNG(26)
	const T, D = 3, 4
	block := bind(rng, NewSequential(
		NewResidual(NewSequential(
			NewPositionwise(T, NewLayerNorm("ln1", D)),
			NewMultiHeadAttention("attn", T, D, 2, true),
		)),
		NewResidual(NewSequential(
			NewPositionwise(T, NewLayerNorm("ln2", D)),
			NewPositionwise(T, NewDense("ff1", D, 2*D)),
			NewGELU(),
			NewPositionwise(T, NewDense("ff2", 2*D, D)),
		)),
	))
	checkLayerGradients(t, block, randInput(27, 2, T*D), 1e-4)
}

// TestLossGradCheck validates the softmax cross-entropy gradient by finite
// differences on the logits.
func TestLossGradCheck(t *testing.T) {
	logits := randInput(28, 5, 4)
	labels := []int{0, 3, 1, 2, 2}
	var loss SoftmaxCrossEntropy
	base, _, grad := loss.Loss(logits, labels)
	_ = base
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := loss.EvalLoss(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := loss.EvalLoss(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-grad.Data[i]) > 1e-6 {
			t.Fatalf("logit %d: analytic %.8g numeric %.8g", i, grad.Data[i], numeric)
		}
	}
}
