package tensor

import (
	"math"
	"testing"
)

// flushEnd returns an n-element operand whose last element sits against a
// guard page: a kernel that reads or writes past it faults.
func flushEnd(t testing.TB, n int) Vector {
	a := guardedArena(t, n)
	return a[len(a)-n:]
}

// layerFill draws v from N(0, 1); with every > 0, one element in every
// (on average) is instead a special: a NaN with its own payload (quiet or
// signalling), ±Inf, ±0 or a repeat of the previous element (a tie).
// Sparse specials leave most rows finite, so a NaN's payload can still be
// told apart after the sums that follow it.
func layerFill(rng *RNG, v Vector, every int) {
	for i := range v {
		v[i] = rng.Norm()
		if every == 0 || rng.Intn(every) != 0 {
			continue
		}
		switch rng.Intn(6) {
		case 0:
			v[i] = math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13)
		case 1:
			v[i] = math.Float64frombits(0xfff0000000000001 | rng.Uint64()>>14)
		case 2:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			v[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		default:
			if i > 0 {
				v[i] = v[i-1]
			}
		}
	}
}

// sameBits fails the test at the first element whose bits differ. With
// anyNaN set, a NaN matches any NaN unless exactNaN holds: an x86 add or
// multiply of two NaNs keeps its first operand's payload, and the Go
// compiler may commute a commutative operation's operands differently from
// build to build, so the Go bodies themselves have no fixed payload for a
// computed NaN. The kernels take the plain build's operand order (go1.24,
// simd_amd64.s), which that build holds them to.
func sameBits(t *testing.T, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(anyNaN && !exactNaN() && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d: %x (%g), want %x (%g)", what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// exactNaN reports a plain build: neither coverage nor the race detector
// instruments (and so recompiles) the Go bodies.
func exactNaN() bool { return testing.CoverMode() == "" && !raceEnabled }

// onBothPaths runs f with the AVX2 kernels and then with the Go bodies; on
// a host without AVX2 it runs the Go bodies once and returns nil for the
// kernel run.
func onBothPaths(f func() []Vector) (kernel, portable []Vector) {
	if haveFMA {
		kernel = f()
	}
	if restore := ForcePortable(); restore != nil {
		defer restore()
	}
	return kernel, f()
}

func TestLayerNormRowsKernelBits(t *testing.T) {
	rng := NewRNG(41)
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 64, 70} {
		for _, cols := range []int{1, 2, 3, 5, 8, 9, 31, 32, 128, 129} {
			for _, every := range []int{0, 500, 40, 3} {
				x, g, b, dy := flushEnd(t, rows*cols), flushEnd(t, cols), flushEnd(t, cols), flushEnd(t, rows*cols)
				for _, v := range []Vector{x, g, b, dy} {
					layerFill(rng, v, every)
				}
				run := func() []Vector {
					mat := func(r, c int) *Matrix {
						m := &Matrix{Rows: r, Cols: c, Data: flushEnd(t, r*c)}
						m.Data.Fill(math.NaN())
						return m
					}
					xm := &Matrix{Rows: rows, Cols: cols, Data: x}
					y, yEval, xhat, dx := mat(rows, cols), mat(rows, cols), mat(rows, cols), mat(rows, cols)
					inv, dg, db := flushEnd(t, rows), flushEnd(t, cols), flushEnd(t, cols)
					dg.Fill(7)
					db.Fill(-7)
					LayerNormRows(y, xhat, inv, xm, g, b, 1e-5)
					LayerNormRows(yEval, nil, nil, xm, g, b, 1e-5)
					LayerNormRowsGrad(dx, dg, db, &Matrix{Rows: rows, Cols: cols, Data: dy}, xhat, inv, g)
					return []Vector{y.Data, yEval.Data, xhat.Data, inv, dx.Data, dg, db}
				}
				kernel, portable := onBothPaths(run)
				names := []string{"y", "eval y", "xhat", "invStd", "dx", "dg", "db"}
				sameBits(t, "eval y vs train y", portable[1], portable[0], true)
				for i := range kernel {
					sameBits(t, names[i], kernel[i], portable[i], true)
				}
			}
		}
	}
}

func TestMaxPool2x2KernelBits(t *testing.T) {
	rng := NewRNG(43)
	for _, rows := range []int{1, 2, 5, 16} {
		for _, c := range []int{1, 3, 8} {
			for _, hw := range [][2]int{{2, 8}, {3, 9}, {8, 8}, {9, 16}, {4, 17}, {5, 6}, {2, 3}, {8, 24}} {
				h, w := hw[0], hw[1]
				for _, every := range []int{0, 500, 40, 3} {
					x := flushEnd(t, rows*c*h*w)
					layerFill(rng, x, every)
					outCols := c * (h / 2) * (w / 2)
					var args [2][]int
					pass := 0
					run := func() []Vector {
						y := &Matrix{Rows: rows, Cols: outCols, Data: flushEnd(t, rows*outCols)}
						yEval := &Matrix{Rows: rows, Cols: outCols, Data: flushEnd(t, rows*outCols)}
						arg := make([]int, rows*outCols)
						for i := range arg {
							arg[i] = -1
						}
						xm := &Matrix{Rows: rows, Cols: c * h * w, Data: x}
						MaxPool2x2(y, arg, xm, c, h, w)
						MaxPool2x2(yEval, nil, xm, c, h, w)
						args[pass] = arg
						pass++
						return []Vector{y.Data, yEval.Data}
					}
					kernel, portable := onBothPaths(run)
					sameBits(t, "eval y vs train y", portable[1], portable[0], false)
					if kernel == nil {
						continue
					}
					sameBits(t, "y", kernel[0], portable[0], false)
					sameBits(t, "eval y", kernel[1], portable[1], false)
					for i, a := range args[0] {
						if a != args[1][i] {
							t.Fatalf("rows %d, %d×%d×%d: argmax[%d] = %d, want %d", rows, c, h, w, i, a, args[1][i])
						}
					}
				}
			}
		}
	}
}

func TestAddKernelBits(t *testing.T) {
	rng := NewRNG(47)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 16, 100, 2049} {
		a, b := flushEnd(t, n), flushEnd(t, n)
		layerFill(rng, a, 3)
		layerFill(rng, b, 3)
		kernel, portable := onBothPaths(func() []Vector {
			dst := flushEnd(t, n)
			Add(dst, a, b)
			return []Vector{dst}
		})
		if kernel != nil {
			sameBits(t, "Add", kernel[0], portable[0], true)
		}
	}
}

// TestIm2ColMatchesNaive holds Im2Col's block copies ("same" padding) and
// its per-run loop to the definition, element by element, operands flush
// against guard pages.
func TestIm2ColMatchesNaive(t *testing.T) {
	rng := NewRNG(53)
	for _, s := range [][5]int{{3, 8, 8, 3, 1}, {8, 4, 4, 3, 1}, {3, 8, 8, 5, 2}, {2, 5, 7, 3, 1}, {1, 1, 8, 3, 1},
		{2, 6, 6, 3, 0}, {1, 3, 3, 5, 1}, {2, 4, 9, 1, 0}, {1, 2, 2, 5, 2}} {
		c, h, w, k, pad := s[0], s[1], s[2], s[3], s[4]
		oh, ow := convOut(h, k, pad), convOut(w, k, pad)
		src := flushEnd(t, c*h*w)
		layerFill(rng, src, 0)
		cols := &Matrix{Rows: c * k * k, Cols: oh * ow, Data: flushEnd(t, c*k*k*oh*ow)}
		cols.Data.Fill(math.NaN())
		Im2Col(cols, src, c, h, w, k, pad)
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							want := 0.0
							if iy, ix := oy-pad+ky, ox-pad+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
								want = src[(ch*h+iy)*w+ix]
							}
							if got := cols.Row((ch*k+ky)*k + kx)[oy*ow+ox]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v: tap (%d,%d,%d) at (%d,%d) = %g, want %g", s, ch, ky, kx, oy, ox, got, want)
							}
						}
					}
				}
			}
		}
	}
}
