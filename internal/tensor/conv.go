package tensor

import "fmt"

// Im2Col and Col2Im lower 2-D convolution onto matrix multiplication. One
// sample is a flat CHW vector (channel-major, x[c*h*w + y*w + x]); its
// column matrix has one row per (channel, ky, kx) filter tap and one column
// per output pixel, so that a convolution with stride 1 and symmetric zero
// padding becomes
//
//	Y (F × outH·outW)  =  W (F × C·K·K)  ×  cols (C·K·K × outH·outW)
//
// Both kernels work row-segment-wise: for a fixed (c, ky, kx) tap and
// output row oy, the valid output columns form one contiguous run that maps
// to a contiguous run of the input row, so the inner loops are straight
// copies (Im2Col) and fused adds (Col2Im) with no per-pixel bounds tests.

// convOut returns the output extent for input size n, kernel k, padding pad
// at stride 1.
func convOut(n, k, pad int) int { return n + 2*pad - k + 1 }

// checkIm2ColShapes validates the geometry shared by Im2Col and Col2Im.
func checkIm2ColShapes(cols *Matrix, src Vector, c, h, w, k, pad int) (oh, ow int) {
	oh, ow = convOut(h, k, pad), convOut(w, k, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: im2col empty output for %dx%d kernel %d pad %d", h, w, k, pad))
	}
	if len(src) != c*h*w {
		panic(fmt.Sprintf("tensor: im2col input length %d != %d·%d·%d", len(src), c, h, w))
	}
	if cols.Rows != c*k*k || cols.Cols != oh*ow {
		panic(fmt.Sprintf("tensor: im2col cols %dx%d, want %dx%d", cols.Rows, cols.Cols, c*k*k, oh*ow))
	}
	return oh, ow
}

// Im2Col fills cols with the receptive fields of one CHW sample. cols must
// be (c·k·k) × (outH·outW); src must be c·h·w long. Out-of-bounds taps are
// zero (zero padding).
func Im2Col(cols *Matrix, src Vector, c, h, w, k, pad int) {
	oh, ow := checkIm2ColShapes(cols, src, c, h, w, k, pad)
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			// Valid output rows: 0 <= oy-pad+ky < h.
			loY, hiY := clampRun(ky, pad, h, oh)
			for kx := 0; kx < k; kx++ {
				row := cols.Row((ch*k+ky)*k + kx)
				// Valid output columns: 0 <= ox-pad+kx < w.
				loX, hiX := clampRun(kx, pad, w, ow)
				if ow == w && loX < hiX && loY < hiY {
					im2colBlock(row, plane[(loY-pad+ky)*w+loX-pad+kx:], ow, loY, hiY, loX, hiX)
					continue
				}
				for oy := 0; oy < oh; oy++ {
					out := row[oy*ow : (oy+1)*ow]
					iy := oy - pad + ky
					if iy < 0 || iy >= h || loX == hiX {
						out.Zero()
						continue
					}
					for i := 0; i < loX; i++ {
						out[i] = 0
					}
					copy(out[loX:hiX], plane[iy*w+loX-pad+kx:])
					for i := hiX; i < ow; i++ {
						out[i] = 0
					}
				}
			}
		}
	}
}

// im2colBlock fills one tap's row of cols when output and input rows are
// equally wide ("same" padding, every zoo convolution): the tap's runs,
// output rows [loY, hiY) × columns [loX, hiX), then sit at one fixed
// offset from src, its first element, so one copy moves them all — a
// stem tap's eight 7–8-element runs cost one call instead of eight —
// and the columns outside [loX, hiX), which the copy filled from the
// neighbouring input rows, are zeroed after it.
func im2colBlock(row, src Vector, ow, loY, hiY, loX, hiX int) {
	row[:loY*ow].Zero()
	row[hiY*ow:].Zero()
	copy(row[loY*ow+loX:(hiY-1)*ow+hiX], src)
	for oy := loY; oy < hiY; oy++ {
		out := row[oy*ow : oy*ow+ow]
		for i := 0; i < loX; i++ {
			out[i] = 0
		}
		for i := hiX; i < ow; i++ {
			out[i] = 0
		}
	}
}

// Col2Im scatter-adds a column matrix back onto one CHW sample gradient:
// the exact adjoint of Im2Col. dst must be c·h·w long and is accumulated
// into, not overwritten; cols must be (c·k·k) × (outH·outW).
func Col2Im(dst Vector, cols *Matrix, c, h, w, k, pad int) {
	oh, ow := checkIm2ColShapes(cols, dst, c, h, w, k, pad)
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := cols.Row((ch*k+ky)*k + kx)
				loX, hiX := clampRun(kx, pad, w, ow)
				if loX == hiX {
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					in := row[oy*ow+loX : oy*ow+hiX]
					out := plane[iy*w+loX-pad+kx:]
					for i, v := range in {
						out[i] += v
					}
				}
			}
		}
	}
}

// clampRun returns the half-open range [lo, hi) of output columns whose
// input column ox-pad+kx lands inside [0, w). Both ends are clamped into
// [0, ow]: for degenerate geometries (k > w+pad+1) a tap can miss every
// output column, in which case lo == hi == ow and the run is empty.
func clampRun(kx, pad, w, ow int) (lo, hi int) {
	lo = pad - kx
	if lo < 0 {
		lo = 0
	}
	if lo > ow {
		lo = ow
	}
	hi = w + pad - kx
	if hi > ow {
		hi = ow
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
