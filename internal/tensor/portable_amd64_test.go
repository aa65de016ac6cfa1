package tensor

import (
	"math"
	"testing"
)

// TestPortableKernelsOnFMAHost runs the pure-Go bodies every kernel keeps
// for hosts without AVX2+FMA — on an amd64 runner nothing else ever
// executes them — by clearing haveFMA for its duration, and holds them to
// the assembly's results within the slack FMA contraction leaves (relClose,
// 1e-12). No test of this package runs in parallel and the fan-out helpers
// only read haveFMA inside a task, so the flip is race-free.
func TestPortableKernelsOnFMAHost(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2+FMA on this machine; every other test already runs the portable kernels")
	}
	defer func() { haveFMA = true }()

	// run evaluates kernel twice on fresh copies of its inputs, with and
	// without the assembly, and compares every output vector.
	run := func(name string, inputs []Vector, kernel func(v []Vector)) {
		t.Helper()
		var outs [2][]Vector
		for pass, fma := range []bool{true, false} {
			haveFMA = fma
			for _, in := range inputs {
				outs[pass] = append(outs[pass], in.Clone())
			}
			kernel(outs[pass])
		}
		haveFMA = true
		for i := range inputs {
			for j, x := range outs[0][i] {
				if y := outs[1][i][j]; !relClose(x, y) {
					t.Fatalf("%s: operand %d element %d: assembly %g, portable %g", name, i, j, x, y)
				}
			}
		}
	}

	rng := NewRNG(99)
	// Shapes off every blocking (4×8 and 2×3 tiles, 4-wide steps, 8-wide
	// lanes), including the conv stem's 27 and the head's 100.
	for _, s := range [][3]int{{16, 128, 128}, {16, 100, 128}, {8, 64, 27}, {7, 13, 9}, {5, 3, 2}} {
		rows, cols, k := s[0], s[1], s[2]
		mat := func(data Vector, r, c int) *Matrix { return &Matrix{Rows: r, Cols: c, Data: data} }
		in := []Vector{randVec(rng, rows*cols), randVec(rng, rows*k), randVec(rng, k*cols)}
		run("MatMul", in, func(v []Vector) { MatMul(mat(v[0], rows, cols), mat(v[1], rows, k), mat(v[2], k, cols)) })
		run("MatMulATB", in, func(v []Vector) { MatMulATB(mat(v[0], rows, cols), mat(v[1], k, rows), mat(v[2], k, cols)) })
		run("MatMulATBAcc", in, func(v []Vector) { MatMulATBAcc(mat(v[0], rows, cols), mat(v[1], k, rows), mat(v[2], k, cols)) })
		run("MatMulABT", in, func(v []Vector) { MatMulABT(mat(v[0], rows, cols), mat(v[1], rows, k), mat(v[2], cols, k)) })
		run("MatMulABTAcc", in, func(v []Vector) { MatMulABTAcc(mat(v[0], rows, cols), mat(v[1], rows, k), mat(v[2], cols, k)) })
	}
	for _, n := range []int{1, 7, 8, 100, combineBlock + 129} {
		for _, nsrc := range []int{1, 4, 7} {
			in := []Vector{NewVector(n)}
			w := make([]float64, nsrc)
			for i := range w {
				in = append(in, randVec(rng, n))
				w[i] = 0.5 + rng.Float64()
			}
			run("Average", in, func(v []Vector) { Average(v[0], v[1:]) })
			run("WeightedAverage", in, func(v []Vector) { WeightedAverage(v[0], v[1:], w) })
		}
		in := []Vector{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		for i, x := range in[3] {
			in[3][i] = math.Abs(x) // Adam's second moment is non-negative
		}
		run("SGDMomentum", in[:3], func(v []Vector) { SGDMomentum(v[0], v[1], v[2], 0.05, 0.9, 4e-4) })
		run("AdamUpdate", in, func(v []Vector) { AdamUpdate(v[0], v[1], v[2], v[3], 1e-3, 0.9, 0.999, 1e-8, 0.19, 0.002) })
		run("Add/Sub/Axpy", in[:3], func(v []Vector) {
			v[0].Add(v[1])
			v[0].Sub(v[2])
			v[0].Axpy(-0.7, v[1])
		})
		run("Dot", in[:3], func(v []Vector) { v[0][0] = v[1].Dot(v[2]) })
		run("Norm2", in[:2], func(v []Vector) { v[0][0] = v[1].Norm2() })
		run("Mul", in[:3], func(v []Vector) { Mul(v[0], v[1], v[2]) })
		run("ReluMask", in[:3], func(v []Vector) { ReluMask(v[0], v[1], v[2]) })
	}
}
