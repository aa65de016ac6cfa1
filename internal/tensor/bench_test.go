package tensor

import "testing"

func benchMatrices(n int) (a, b, c *Matrix) {
	rng := NewRNG(1)
	a, b, c = NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
	rng.NormVector(a.Data, 0, 1)
	rng.NormVector(b.Data, 0, 1)
	return
}

// BenchmarkNormVector is one model-sized draw (ResNetLite(10, 6) has
// 201 450 parameters): the four-lane kernel on AVX2 hosts, the scalar loop
// elsewhere.
func BenchmarkNormVector(b *testing.B) {
	v := NewVector(201_450)
	rng := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.NormVector(v, 0, 1)
	}
}

// BenchmarkTopKSelectAdd is one top-k:0.01 select at the end-to-end
// benchmark's c100 dimension. uplink is the error-feedback round a worker
// runs — fold four seeded gradients round-robin into a residual, select,
// zero what was sent — and downlink a select without a fold, on a seeded
// vector.
func BenchmarkTopKSelectAdd(b *testing.B) {
	const n, k = 213_060, 2_131
	rng := NewRNG(4)
	grads := make([]Vector, 4)
	for i := range grads {
		grads[i] = NewVector(n)
		rng.NormVector(grads[i], 0, 1e-2)
	}
	b.Run("uplink", func(b *testing.B) {
		resid, idx := NewVector(n), make([]uint32, 0, n)
		round := func(i int) {
			idx = TopKSelectAdd(resid, grads[i%len(grads)], k, idx[:0])
			for _, p := range idx {
				resid[p] = 0
			}
		}
		for i := range 16 { // a residual in its steady state
			round(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(i)
		}
	})
	b.Run("downlink", func(b *testing.B) {
		idx := make([]uint32, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx = TopKSelectAdd(grads[0], nil, k, idx[:0])
		}
	})
}

func BenchmarkMatMul64(b *testing.B) {
	x, y, z := benchMatrices(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(z, x, y)
	}
}

func BenchmarkMatMul256Parallel(b *testing.B) {
	x, y, z := benchMatrices(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(z, x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	rng := NewRNG(2)
	v, u := NewVector(4096), NewVector(4096)
	rng.NormVector(v, 0, 1)
	rng.NormVector(u, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Axpy(0.01, u)
	}
}

func BenchmarkAverage16Workers(b *testing.B) {
	rng := NewRNG(3)
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = NewVector(65536)
		rng.NormVector(vs[i], 0, 1)
	}
	dst := NewVector(65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Average(dst, vs)
	}
}

// The GEMMs of one c100 step (ResNetLite, width 128, batch 16, 100 classes):
// every shape the benchmark's training and evaluation loops issue, so a
// kernel change shows per shape. All but the evaluation batch run inline at
// any GOMAXPROCS.

func benchGEMM(b *testing.B, kernel func(dst, x, y *Matrix), dst, x, y *Matrix) {
	rng := NewRNG(4)
	rng.NormVector(x.Data, 0, 1)
	rng.NormVector(y.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, x, y)
	}
}

// BenchmarkMatMulDense128 is the forward GEMM of a width-128 Dense layer.
func BenchmarkMatMulDense128(b *testing.B) {
	benchGEMM(b, MatMul, NewMatrix(16, 128), NewMatrix(16, 128), NewMatrix(128, 128))
}

// BenchmarkMatMulATBAccDense128 is its weight-gradient GEMM, dW += xᵀ·dy,
// the most frequent ATB shape of the step.
func BenchmarkMatMulATBAccDense128(b *testing.B) {
	benchGEMM(b, MatMulATBAcc, NewMatrix(128, 128), NewMatrix(16, 128), NewMatrix(16, 128))
}

// BenchmarkMatMulABTDense128 is its input-gradient GEMM, dx = dy·Wᵀ.
func BenchmarkMatMulABTDense128(b *testing.B) {
	benchGEMM(b, MatMulABT, NewMatrix(16, 128), NewMatrix(16, 128), NewMatrix(128, 128))
}

// BenchmarkMatMulHead100 is the classifier head's forward GEMM: 100 output
// columns, so the last four fall off the eight-wide column blocks.
func BenchmarkMatMulHead100(b *testing.B) {
	benchGEMM(b, MatMul, NewMatrix(16, 100), NewMatrix(16, 128), NewMatrix(128, 100))
}

// BenchmarkMatMulConvStem is one sample of the conv stem's forward GEMM,
// 8 filters × 27 taps × 64 pixels: a shared dimension off the four-wide
// blocking.
func BenchmarkMatMulConvStem(b *testing.B) {
	benchGEMM(b, MatMul, NewMatrix(8, 64), NewMatrix(8, 27), NewMatrix(27, 64))
}

// BenchmarkMatMulEval256 is a width-128 forward GEMM at the evaluation
// batch, the one c100 shape at parallelThreshold: it fans out at
// GOMAXPROCS > 1.
func BenchmarkMatMulEval256(b *testing.B) {
	benchGEMM(b, MatMul, NewMatrix(256, 128), NewMatrix(256, 128), NewMatrix(128, 128))
}
