package tensor

import (
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a mutable view")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	m := FromRows([]Vector{{1, 2}, {3, 4}})
	n := FromRows([]Vector{{1, 2}, {3, 4}})
	if !m.Equal(n) {
		t.Fatal("Equal: identical matrices reported unequal")
	}
	n.Set(1, 1, 0)
	if m.Equal(n) {
		t.Fatal("Equal: different matrices reported equal")
	}
	if m.Equal(NewMatrix(1, 4)) {
		t.Fatal("Equal: shape mismatch reported equal")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([]Vector{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([]Vector{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape: %v", mt)
	}
	if mt.At(0, 1) != 4 || mt.At(2, 0) != 3 {
		t.Fatalf("T values wrong: %v", mt.Data)
	}
}

func TestReshapeSharesData(t *testing.T) {
	m := FromRows([]Vector{{1, 2, 3, 4}})
	r := m.Reshape(2, 2)
	r.Set(1, 1, 99)
	if m.At(0, 3) != 99 {
		t.Fatal("Reshape must share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	m.Reshape(3, 3)
}

func TestAddRowVectorSumColumns(t *testing.T) {
	m := FromRows([]Vector{{1, 2}, {3, 4}})
	m.AddRowVector(Vector{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVector: %v", m.Data)
	}
	sums := NewVector(2)
	m.SumColumns(sums)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("SumColumns: %v", sums)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([]Vector{{1, 2}, {3, 4}})
	b := FromRows([]Vector{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	MatMul(c, a, b)
	want := FromRows([]Vector{{19, 22}, {43, 50}})
	if !c.Equal(want) {
		t.Fatalf("MatMul: got %v want %v", c.Data, want.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

// TestGEMMRefusesShortBacking: the tile kernels address operands by shape,
// so a matrix whose Data is shorter than Rows×Cols must be refused up front
// by every entry point, in whichever operand it sits, the way slicing a Row
// out of it used to.
func TestGEMMRefusesShortBacking(t *testing.T) {
	for name, kernel := range map[string]func(dst, a, b *Matrix){
		"MatMul": MatMul, "MatMulATB": MatMulATB, "MatMulATBAcc": MatMulATBAcc, "MatMulABT": MatMulABT, "MatMulABTAcc": MatMulABTAcc,
	} {
		for short := 0; short < 3; short++ {
			ops := [3]*Matrix{NewMatrix(8, 8), NewMatrix(8, 8), NewMatrix(8, 8)}
			ops[short].Data = ops[short].Data[:63]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted operand %d one element short of its shape", name, short)
					}
				}()
				kernel(ops[0], ops[1], ops[2])
			}()
		}
	}
}

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	rng.NormVector(m.Data, 0, 1)
	return m
}

func matAlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !almostEqual(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

// naive reference multiply for cross-checking the parallel kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(7)
	for _, dims := range [][3]int{{3, 4, 5}, {1, 7, 2}, {8, 8, 8}, {130, 70, 90}} {
		a := randMatrix(rng, dims[0], dims[1])
		b := randMatrix(rng, dims[1], dims[2])
		got := NewMatrix(dims[0], dims[2])
		MatMul(got, a, b)
		if !matAlmostEqual(got, naiveMatMul(a, b), 1e-9) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulATBMatchesNaive(t *testing.T) {
	rng := NewRNG(8)
	for _, dims := range [][3]int{{4, 3, 5}, {9, 2, 2}, {120, 60, 40}} {
		a := randMatrix(rng, dims[0], dims[1]) // n×p
		b := randMatrix(rng, dims[0], dims[2]) // n×q
		got := NewMatrix(dims[1], dims[2])
		MatMulATB(got, a, b)
		if !matAlmostEqual(got, naiveMatMul(a.T(), b), 1e-9) {
			t.Fatalf("MatMulATB mismatch at dims %v", dims)
		}
	}
}

func TestMatMulABTMatchesNaive(t *testing.T) {
	rng := NewRNG(9)
	for _, dims := range [][3]int{{4, 3, 5}, {2, 9, 2}, {60, 120, 40}} {
		a := randMatrix(rng, dims[0], dims[1]) // n×p
		b := randMatrix(rng, dims[2], dims[1]) // q×p
		got := NewMatrix(dims[0], dims[2])
		MatMulABT(got, a, b)
		if !matAlmostEqual(got, naiveMatMul(a, b.T()), 1e-9) {
			t.Fatalf("MatMulABT mismatch at dims %v", dims)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ on random small matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n, p, q := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMatrix(rng, n, p)
		b := randMatrix(rng, p, q)
		ab := NewMatrix(n, q)
		MatMul(ab, a, b)
		btat := NewMatrix(q, n)
		MatMul(btat, b.T(), a.T())
		return matAlmostEqual(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits should produce different streams")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(12)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample size: %d", len(s))
	}
	seen := map[int]bool{}
	for _, x := range s {
		if x < 0 || x >= 10 || seen[x] {
			t.Fatalf("Sample invalid: %v", s)
		}
		seen[x] = true
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("Norm mean too far from 0: %v", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("Norm variance too far from 1: %v", variance)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(14)
	for i := 0; i < 1000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}
