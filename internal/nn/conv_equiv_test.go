package nn

import (
	"fmt"
	"math"
	"testing"

	"selsync/internal/tensor"
)

// The GEMM-backed convolution must be numerically faithful to the retained
// direct-loop reference: same forward activations, same input gradient,
// same weight and bias gradients. These property tests sweep
// random shapes, kernel sizes, paddings, and batch sizes, and compare every
// output of the two paths within tight tolerance (the only differences are
// floating-point summation order and FMA contraction).

const convEquivTol = 1e-9

func maxAbsDiff(a, b tensor.Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// newConvPair builds two convolutions with identical weights, one per path.
func newConvPair(seed uint64, c, h, w, f, k, pad int) (gemm, direct *Conv2D) {
	gemm = bind(tensor.NewRNG(seed), NewConv2D("g", c, h, w, f, k, pad))
	direct = bind(tensor.NewRNG(seed), NewConv2D("d", c, h, w, f, k, pad))
	direct.direct = true
	return gemm, direct
}

func checkConvEquiv(t *testing.T, seed uint64, batch, c, h, w, f, k, pad int) {
	t.Helper()
	gemm, direct := newConvPair(seed, c, h, w, f, k, pad)
	if maxAbsDiff(gemm.Wt.Data, direct.Wt.Data) != 0 {
		t.Fatal("test setup: replicas initialized differently")
	}
	rng := tensor.NewRNG(seed ^ 0xABCD)
	x := tensor.NewMatrix(batch, c*h*w)
	rng.NormVector(x.Data, 0, 1)
	grad := tensor.NewMatrix(batch, f*gemm.OutH()*gemm.OutW())
	rng.NormVector(grad.Data, 0, 1)

	// Pre-seed the gradient windows with different noise: both paths must
	// write the gradient, not add to what was there.
	rng.NormVector(gemm.Wt.Grad, 0, 0.1)
	rng.NormVector(direct.Wt.Grad, 0, 0.1)
	rng.NormVector(gemm.B.Grad, 0, 0.1)
	rng.NormVector(direct.B.Grad, 0, 0.1)

	yg := gemm.Forward(x, true)
	yd := direct.Forward(x, true)
	if d := maxAbsDiff(yg.Data, yd.Data); d > convEquivTol {
		t.Fatalf("forward mismatch: max |Δ| = %g", d)
	}

	dxg := gemm.Backward(grad)
	dxd := direct.Backward(grad)
	if d := maxAbsDiff(dxg.Data, dxd.Data); d > convEquivTol {
		t.Fatalf("input gradient mismatch: max |Δ| = %g", d)
	}
	if d := maxAbsDiff(gemm.Wt.Grad, direct.Wt.Grad); d > convEquivTol {
		t.Fatalf("weight gradient mismatch: max |Δ| = %g", d)
	}
	if d := maxAbsDiff(gemm.B.Grad, direct.B.Grad); d > convEquivTol {
		t.Fatalf("bias gradient mismatch: max |Δ| = %g", d)
	}
}

// TestConvGEMMEquivalenceRandomShapes draws random geometries (channels,
// spatial size, filters, kernel, padding, batch) and checks both passes.
func TestConvGEMMEquivalenceRandomShapes(t *testing.T) {
	rng := tensor.NewRNG(20260728)
	for trial := 0; trial < 40; trial++ {
		c := 1 + rng.Intn(4)
		k := 1 + rng.Intn(3) // kernel 1..3
		pad := rng.Intn(k)   // pad < k keeps output non-empty
		minSide := k - 2*pad
		if minSide < 1 {
			minSide = 1
		}
		h := minSide + rng.Intn(8)
		w := minSide + rng.Intn(8)
		f := 1 + rng.Intn(5)
		batch := 1 + rng.Intn(5)
		seed := uint64(trial)*7919 + 13
		name := fmt.Sprintf("trial%02d_b%d_c%d_%dx%d_f%d_k%d_p%d", trial, batch, c, h, w, f, k, pad)
		t.Run(name, func(t *testing.T) {
			checkConvEquiv(t, seed, batch, c, h, w, f, k, pad)
		})
	}
}

// TestConvGEMMEquivalenceZooShapes pins the exact geometries the model zoo
// uses, including the 5×5 kernel with pad 2 of AlexNetLite.
func TestConvGEMMEquivalenceZooShapes(t *testing.T) {
	cases := []struct {
		name                    string
		batch, c, h, w, f, k, p int
	}{
		{"resnet_stem", 16, ImgChannels, ImgSize, ImgSize, 8, 3, 1},
		{"vgg_conv1", 16, ImgChannels, ImgSize, ImgSize, 8, 3, 1},
		{"vgg_conv2", 16, 8, ImgSize / 2, ImgSize / 2, 16, 3, 1},
		{"alexnet_conv1", 16, ImgChannels, ImgSize, ImgSize, 12, 5, 2},
	}
	for i, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			checkConvEquiv(t, uint64(i)+101, cse.batch, cse.c, cse.h, cse.w, cse.f, cse.k, cse.p)
		})
	}
}

// TestConvGEMMEquivalenceBatchResize re-runs one layer across alternating
// batch sizes: the owned buffers must resize without leaking state between
// differently-shaped steps (the train-step/eval-chunk alternation).
func TestConvGEMMEquivalenceBatchResize(t *testing.T) {
	gemm, direct := newConvPair(555, 2, 6, 6, 3, 3, 1)
	rng := tensor.NewRNG(556)
	for _, batch := range []int{4, 1, 9, 2, 9, 4} {
		x := tensor.NewMatrix(batch, 2*6*6)
		rng.NormVector(x.Data, 0, 1)
		grad := tensor.NewMatrix(batch, 3*gemm.OutH()*gemm.OutW())
		rng.NormVector(grad.Data, 0, 1)

		yg, yd := gemm.Forward(x, true), direct.Forward(x, true)
		if d := maxAbsDiff(yg.Data, yd.Data); d > convEquivTol {
			t.Fatalf("batch %d forward mismatch: %g", batch, d)
		}
		dxg, dxd := gemm.Backward(grad), direct.Backward(grad)
		if d := maxAbsDiff(dxg.Data, dxd.Data); d > convEquivTol {
			t.Fatalf("batch %d dx mismatch: %g", batch, d)
		}
		if d := maxAbsDiff(gemm.Wt.Grad, direct.Wt.Grad); d > convEquivTol {
			t.Fatalf("batch %d dW mismatch: %g", batch, d)
		}
		if d := maxAbsDiff(gemm.B.Grad, direct.B.Grad); d > convEquivTol {
			t.Fatalf("batch %d db mismatch: %g", batch, d)
		}
	}
}

// TestConvGEMMEquivalenceDegenerate pins geometries where a filter tap can
// miss every output column (k > w+pad+1): clampRun must produce an empty
// run, not an out-of-range prefix (regression for a clamp bug).
func TestConvGEMMEquivalenceDegenerate(t *testing.T) {
	cases := []struct {
		name                    string
		batch, c, h, w, f, k, p int
	}{
		{"1x1_k5_p2", 2, 1, 1, 1, 2, 5, 2},
		{"1x3_k5_p2", 2, 1, 1, 3, 2, 5, 2},
		{"3x1_k5_p2", 2, 1, 3, 1, 2, 5, 2},
		{"2x2_k4_p2", 2, 2, 2, 2, 3, 4, 2},
	}
	for i, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			checkConvEquiv(t, uint64(i)+301, cse.batch, cse.c, cse.h, cse.w, cse.f, cse.k, cse.p)
		})
	}
}

// TestIm2ColRoundTrip checks the tensor-level kernels directly: col2im of
// an im2col'd sample must reproduce each input pixel scaled by its
// receptive-field multiplicity.
func TestIm2ColRoundTrip(t *testing.T) {
	const c, h, w, k, pad = 2, 5, 4, 3, 1
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	rng := tensor.NewRNG(7)
	src := tensor.NewVector(c * h * w)
	rng.NormVector(src, 0, 1)
	cols := tensor.NewMatrix(c*k*k, oh*ow)
	tensor.Im2Col(cols, src, c, h, w, k, pad)

	back := tensor.NewVector(c * h * w)
	tensor.Col2Im(back, cols, c, h, w, k, pad)

	// Multiplicity of pixel (y, x): number of (oy, ky) pairs hitting it,
	// counted the same way the kernels enumerate them.
	mult := func(y, x int) float64 {
		var m int
		for ky := 0; ky < k; ky++ {
			oy := y + pad - ky
			if oy < 0 || oy >= oh {
				continue
			}
			for kx := 0; kx < k; kx++ {
				ox := x + pad - kx
				if ox >= 0 && ox < ow {
					m++
				}
			}
		}
		return float64(m)
	}
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := ch*h*w + y*w + x
				want := src[i] * mult(y, x)
				if math.Abs(back[i]-want) > 1e-12 {
					t.Fatalf("pixel (%d,%d,%d): got %g want %g", ch, y, x, back[i], want)
				}
			}
		}
	}
}
