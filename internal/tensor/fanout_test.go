package tensor

import (
	"math"
	"runtime"
	"testing"
)

func randomMatrix(rng *RNG, r, c int) *Matrix {
	m := NewMatrix(r, c)
	rng.NormVector(m.Data, 0, 1)
	// Exact zeros exercise the skip branches of the scalar tails.
	for i := 0; i < len(m.Data); i += 7 {
		m.Data[i] = 0
	}
	return m
}

func bitEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFannedKernelsBitEqualSerial is the determinism contract of the
// package: every kernel that can fan out produces, at any GOMAXPROCS, the
// bits its serial range kernel produces over the whole range. Shapes are
// large enough to cross parallelThreshold (asserted, so the test cannot
// silently degrade to comparing serial with serial) and awkward on purpose:
// row counts no processor count divides, shared dimensions below four and
// off the four-wide blocking, chunks of whole register tiles and chunks
// that end off the tile grid.
func TestFannedKernelsBitEqualSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := NewRNG(77)

	type gemm struct{ rows, cols, k int }
	shapes := []gemm{
		{67, 131, 497},  // nothing divides anything
		{1201, 1187, 3}, // shared dimension below the 4-wide block
		{691, 677, 9},   // two blocks of four plus a tail of one
		{2, 4099, 513},  // fewer rows than processors
		{129, 127, 257},
		{256, 128, 128}, // c100's evaluation GEMM: every chunk whole 4×8 tiles
		{258, 130, 127}, // two rows, two columns and three steps off the tiles
	}
	for i := 0; i < 4; i++ {
		rows, cols := 50+rng.Intn(200), 50+rng.Intn(200)
		shapes = append(shapes, gemm{rows, cols, parallelThreshold/(rows*cols) + 1 + rng.Intn(5)})
	}
	vecLens := []int{
		parallelThreshold/(streamCost*3) + combineBlock + 1, // 3 sources, ragged last block
		5*combineBlock + 17,
		400_003,
	}

	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, s := range shapes {
			if s.rows*s.cols*s.k < parallelThreshold {
				t.Fatalf("shape %+v does not cross parallelThreshold", s)
			}
			// MatMul: dst(rows×cols) = a(rows×k) × b(k×cols).
			a, b := randomMatrix(rng, s.rows, s.k), randomMatrix(rng, s.k, s.cols)
			got, want := NewMatrix(s.rows, s.cols), NewMatrix(s.rows, s.cols)
			MatMul(got, a, b)
			matMulRange(want, a, b, 0, s.rows)
			if !bitEqual(got.Data, want.Data) {
				t.Errorf("procs=%d MatMul %+v differs from the serial kernel", procs, s)
			}
			// MatMulABT and its accumulating form: dst = a × cᵀ, c(cols×k).
			c := randomMatrix(rng, s.cols, s.k)
			for _, acc := range []bool{false, true} {
				rng.NormVector(got.Data, 0, 1)
				want.Data.CopyFrom(got.Data)
				matMulABT(got, a, c, acc)
				matMulABTRange(want, a, c, 0, s.rows, acc)
				if !bitEqual(got.Data, want.Data) {
					t.Errorf("procs=%d MatMulABT(acc=%v) %+v differs from the serial kernel", procs, acc, s)
				}
			}
			// MatMulATB(Acc): dst(rows×cols) (+)= x(k×rows)ᵀ × y(k×cols).
			x, y := randomMatrix(rng, s.k, s.rows), randomMatrix(rng, s.k, s.cols)
			for _, acc := range []bool{false, true} {
				rng.NormVector(got.Data, 0, 1)
				want.Data.CopyFrom(got.Data)
				matMulATB(got, x, y, acc)
				matMulATBRange(want, x, y, 0, s.rows, acc)
				if !bitEqual(got.Data, want.Data) {
					t.Errorf("procs=%d MatMulATB(acc=%v) %+v differs from the serial kernel", procs, acc, s)
				}
			}
		}
		for _, n := range vecLens {
			for _, nsrc := range []int{3, 4, 9} {
				if streamCost*n*nsrc < parallelThreshold {
					continue
				}
				vs := make([]Vector, nsrc)
				w := make([]float64, nsrc)
				for i := range vs {
					vs[i] = NewVector(n)
					rng.NormVector(vs[i], 0, 1)
					w[i] = 0.5 + rng.Float64()
				}
				got, want := NewVector(n), NewVector(n)
				Average(got, vs)
				combineRange(want, vs, nil, 1/float64(nsrc), 0, n)
				if !bitEqual(got, want) {
					t.Errorf("procs=%d Average n=%d over %d sources differs from the serial kernel", procs, n, nsrc)
				}
				var total float64
				for _, x := range w {
					total += x
				}
				WeightedAverage(got, vs, w)
				combineRange(want, vs, w, 1/total, 0, n)
				if !bitEqual(got, want) {
					t.Errorf("procs=%d WeightedAverage n=%d over %d sources differs from the serial kernel", procs, n, nsrc)
				}
				CopyAll(vs, want)
				for i, v := range vs {
					if !bitEqual(v, want) {
						t.Errorf("procs=%d CopyAll n=%d: destination %d differs from src", procs, n, i)
					}
				}
			}
		}
	}
}

// TestFannedKernelsDoNotAllocate pins the allocation behaviour the training
// step relies on, on the path that runs at GOMAXPROCS > 1: once the helper
// goroutines and the task free list are warm, a fanned-out call allocates
// nothing. (testing.AllocsPerRun pins GOMAXPROCS to 1 and so can only ever
// see the inline path; this counts mallocs itself.)
func TestFannedKernelsDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := NewRNG(5)
	// 176 rows are whole register tiles in every chunk; 178 leave rows,
	// columns and steps for the row kernels.
	var as, bs, dsts []*Matrix
	for _, n := range []int{176, 178} {
		as, bs, dsts = append(as, randomMatrix(rng, n, n)), append(bs, randomMatrix(rng, n, n)), append(dsts, NewMatrix(n, n))
	}
	vs := []Vector{NewVector(600_000), NewVector(600_000)}
	mean := NewVector(600_000)
	round := func() {
		for i, dst := range dsts {
			MatMul(dst, as[i], bs[i])
			MatMulABT(dst, as[i], bs[i])
			MatMulATBAcc(dst, as[i], bs[i])
		}
		Average(mean, vs)
		CopyAll(vs, mean)
	}
	if 176*176*176 < parallelThreshold || streamCost*len(mean)*len(vs) < parallelThreshold {
		t.Fatal("test shapes do not cross parallelThreshold")
	}
	for i := 0; i < 5; i++ {
		round()
	}
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / rounds; n != 0 {
		t.Fatalf("fanned kernels allocated %d times per round, want 0", n)
	}
}
