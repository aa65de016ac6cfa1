package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The register-tile kernels (fmaTile4x8, fmaDotTile2x3) replace the interior
// of the row-at-a-time GEMM loops and must not be a second numeric path:
// these tests hold all five entry points to the bits of gemmRows / abtRows,
// the retained axpy4/dot4 row loops, with every operand between guard pages.

// gemmOperands are the guarded slabs one product's operands are cut from.
type gemmOperands struct{ dst, a, b Vector }

func newGemmOperands(t testing.TB, maxElems int) *gemmOperands {
	return &gemmOperands{guardedArena(t, maxElems), guardedArena(t, maxElems), guardedArena(t, maxElems)}
}

// place cuts a rows×cols matrix out of slab, flush against the guard page
// after it (atEnd) or before it, and fills it from vals.
func place(slab Vector, rows, cols int, atEnd bool, vals Vector) *Matrix {
	n := rows * cols
	data := slab[:n:n]
	if atEnd {
		data = slab[len(slab)-n:]
	}
	copy(data, vals)
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Two NaNs with distinct payloads, one per multiplicand: which of them a
// product propagates depends on the FMA's operand roles, so a tile kernel
// that swapped them would differ from the row kernels in the payload.
var (
	nanA = math.Float64frombits(0x7FF8_0000_0000_0A0A)
	nanB = math.Float64frombits(0x7FF8_0000_0000_0B0B)
)

// fillOperand draws n normals and salts them: exact zeros of both signs
// (the skip branches of the depth%4 tail) always, infinities and nan when
// special.
func fillOperand(rng *RNG, n int, special bool, nan float64) Vector {
	v := NewVector(n)
	rng.NormVector(v, 0, 1)
	for i := range v {
		switch r := rng.Intn(40); {
		case r < 4:
			v[i] = 0
		case r < 6:
			v[i] = math.Copysign(0, -1)
		case special && r == 6:
			v[i] = math.Inf(1 - 2*(i&1))
		case special && r == 7:
			v[i] = nan
		}
	}
	return v
}

// checkTiledGEMM runs all five entry points on one shape — dst rows×cols,
// shared dimension k — over the full row range through the exported
// functions and over [lo, hi) through the range kernels, and compares every
// result with the row loops on heap copies. Rows outside [lo, hi) must come
// back untouched. dst0 seeds the accumulating forms; it must hold no NaN
// (the Go `out[j] += s` around dot4 leaves the choice between two NaN
// payloads to the compiler's operand order, in the reference itself).
func checkTiledGEMM(t *testing.T, ops *gemmOperands, rows, cols, k, lo, hi int, atEnd bool, av, bv, atv, btv, dst0 Vector) {
	t.Helper()
	name := fmt.Sprintf("%dx%dx%d [%d,%d) atEnd=%v", rows, cols, k, lo, hi, atEnd)
	dst := place(ops.dst, rows, cols, atEnd, dst0)
	want := &Matrix{Rows: rows, Cols: cols, Data: dst0.Clone()}
	check := func(kernel string) {
		t.Helper()
		if !bitEqual(dst.Data, want.Data) {
			for i := range dst.Data {
				if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s %s: element (%d,%d) = %x, row kernels give %x", kernel, name, i/cols, i%cols,
						math.Float64bits(dst.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
		copy(dst.Data, dst0)
		copy(want.Data, dst0)
	}
	full := lo == 0 && hi == rows

	// dst = a × b and dst (+)= a × cᵀ: a is rows×k, b is k×cols, c = bᵀ.
	a, b := place(ops.a, rows, k, atEnd, av), place(ops.b, k, cols, !atEnd, bv)
	if full {
		MatMul(dst, a, b)
	} else {
		matMulRange(dst, a, b, lo, hi)
	}
	gemmRows(want, av, k, 1, k, &Matrix{Rows: k, Cols: cols, Data: bv}, lo, hi, 0, false)
	check("MatMul")

	c := place(ops.b, cols, k, !atEnd, btv)
	for _, acc := range []bool{false, true} {
		switch {
		case !full:
			matMulABTRange(dst, a, c, lo, hi, acc)
		case acc:
			MatMulABTAcc(dst, a, c)
		default:
			MatMulABT(dst, a, c)
		}
		abtRows(want, &Matrix{Rows: rows, Cols: k, Data: av}, &Matrix{Rows: cols, Cols: k, Data: btv}, lo, hi, 0, acc)
		check(fmt.Sprintf("MatMulABT(acc=%v)", acc))
	}

	// dst (+)= xᵀ × b: x is k×rows. The overwriting form must equal the
	// accumulating one into zeroed rows, bit for bit.
	x := place(ops.a, k, rows, atEnd, atv)
	b = place(ops.b, k, cols, !atEnd, bv)
	for _, acc := range []bool{false, true} {
		switch {
		case !full:
			matMulATBRange(dst, x, b, lo, hi, acc)
		case acc:
			MatMulATBAcc(dst, x, b)
		default:
			MatMulATB(dst, x, b)
		}
		if !acc {
			want.Data[lo*cols : hi*cols].Zero()
		}
		gemmRows(want, atv, 1, rows, k, &Matrix{Rows: k, Cols: cols, Data: bv}, lo, hi, 0, true)
		check(fmt.Sprintf("MatMulATB(acc=%v)", acc))
	}
}

func TestTiledGEMMBitEqualRowKernels(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2+FMA on this machine; the row kernels are the only path")
	}
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 256}
	colCounts := []int{1, 7, 8, 9, 16, 64, 100, 128}
	depths := []int{1, 3, 4, 16, 27, 128}
	ops := newGemmOperands(t, 256*128)
	rng := NewRNG(2718)
	for _, rows := range rowCounts {
		for _, cols := range colCounts {
			for _, k := range depths {
				special := (rows+cols+k)%2 == 1
				av, atv := fillOperand(rng, rows*k, special, nanA), fillOperand(rng, k*rows, special, nanA)
				bv, btv := fillOperand(rng, k*cols, special, nanB), fillOperand(rng, cols*k, special, nanB)
				dst0 := fillOperand(rng, rows*cols, false, 0)
				if special {
					dst0[rng.Intn(len(dst0))] = math.Inf(-1)
				}
				for _, atEnd := range []bool{true, false} {
					checkTiledGEMM(t, ops, rows, cols, k, 0, rows, atEnd, av, bv, atv, btv, dst0)
				}
				// Ranges that start and stop off the tile grid, as fanned
				// chunks of an odd row count do.
				if rows > 2 {
					checkTiledGEMM(t, ops, rows, cols, k, 1, rows-1, true, av, bv, atv, btv, dst0)
					checkTiledGEMM(t, ops, rows, cols, k, rows/2, rows, false, av, bv, atv, btv, dst0)
				}
			}
		}
	}
}

// FuzzGEMMTile holds the tile kernels to the row kernels on fuzzer-chosen
// shapes and bit patterns: every eight bytes of data are one float64,
// whatever they spell (signalling NaNs, subnormals, infinities), cycled
// through the operands.
func FuzzGEMMTile(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint8(16), uint8(128), uint8(128), uint8(0), uint8(16), bits(0.5, -1.25, 3))
	f.Add(uint8(8), uint8(64), uint8(27), uint8(0), uint8(8), bits(1, 0, math.Copysign(0, -1), 1e-310))
	f.Add(uint8(7), uint8(100), uint8(9), uint8(1), uint8(6), bits(math.Inf(1), -2, nanA, 0, math.Inf(-1), nanB, 7))
	f.Add(uint8(5), uint8(3), uint8(4), uint8(0), uint8(5), bits(math.Float64frombits(0x7FF0_0000_0000_0001), 1, 2))
	ops := newGemmOperands(f, 255*255) // one set per process: the target runs serially
	f.Fuzz(func(t *testing.T, rows, cols, k, lo, hi uint8, data []byte) {
		if !haveFMA || rows == 0 || cols == 0 || k == 0 || len(data) < 8 {
			t.Skip()
		}
		r, c, d := int(rows), int(cols), int(k)
		l, h := int(lo)%r, int(hi)%(r+1)
		if l > h {
			l, h = h, l
		}
		next := 0
		draw := func(n int) Vector {
			v := NewVector(n)
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[next:]))
				if next += 8; next+8 > len(data) {
					next = 0
				}
			}
			return v
		}
		av, bv, atv, btv, dst0 := draw(r*d), draw(d*c), draw(d*r), draw(c*d), draw(r*c)
		for i, x := range dst0 {
			if math.IsNaN(x) {
				dst0[i] = 1 // see checkTiledGEMM
			}
		}
		checkTiledGEMM(t, ops, r, c, d, l, h, true, av, bv, atv, btv, dst0)
		checkTiledGEMM(t, ops, r, c, d, 0, r, false, av, bv, atv, btv, dst0)
	})
}
