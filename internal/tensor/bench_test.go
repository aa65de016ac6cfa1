package tensor

import "testing"

func benchMatrices(n int) (a, b, c *Matrix) {
	rng := NewRNG(1)
	a, b, c = NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
	rng.NormVector(a.Data, 0, 1)
	rng.NormVector(b.Data, 0, 1)
	return
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

// BenchmarkMatMulATBAccDense128 is the weight-gradient GEMM of a width-128
// Dense layer at batch 16, the most frequent ATB shape of the c100 step;
// at 262k multiply-adds it runs inline at any GOMAXPROCS.
func BenchmarkMatMulATBAccDense128(b *testing.B) {
	rng := NewRNG(4)
	x, dy, dw := NewMatrix(16, 128), NewMatrix(16, 128), NewMatrix(128, 128)
	rng.NormVector(x.Data, 0, 1)
	rng.NormVector(dy.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATBAcc(dw, x, dy)
	}
}
