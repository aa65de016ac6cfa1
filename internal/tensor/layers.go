package tensor

import (
	"fmt"
	"math"
)

// Kernels for the training step's non-GEMM layers: LayerNorm's forward and
// backward, the 2×2 max pool and the residual add. Each has an AVX2 body in
// simd_amd64.s (selected by haveFMA) that reproduces its Go body here bit
// for bit: every per-row sum is added in column order (the kernels put four
// rows in the four lanes), every column sum in row order starting from +0,
// and the elementwise passes round each subtraction, multiplication and
// addition on its own (no FMA). Which payload a NaN + NaN keeps follows the
// operand order; the kernels take the order the go1.24 compiler gives the
// Go loops in a plain build (race and fuzzing builds may commute them).

// LayerNormRows normalizes each row of x to zero mean and unit variance and
// applies the per-column gain g and bias b:
//
//	mu_i = mean(x_i), inv_i = 1/sqrt(var(x_i) + eps),
//	xhat[i][j] = (x[i][j] − mu_i)·inv_i, y[i][j] = xhat[i][j]·g[j] + b[j].
//
// A training forward passes xhat (x's shape) and invStd (one per row) for
// the backward pass to read; an evaluation forward passes nil for both and
// stores only y.
func LayerNormRows(y, xhat *Matrix, invStd Vector, x *Matrix, g, b Vector, eps float64) {
	if y.Rows != x.Rows || y.Cols != x.Cols || len(g) != x.Cols || len(b) != x.Cols {
		panic(fmt.Sprintf("tensor: LayerNormRows y %dx%d, x %dx%d, g %d, b %d", y.Rows, y.Cols, x.Rows, x.Cols, len(g), len(b)))
	}
	if (xhat == nil) != (invStd == nil) || xhat != nil && (xhat.Rows != x.Rows || xhat.Cols != x.Cols || len(invStd) != x.Rows) {
		panic("tensor: LayerNormRows xhat/invStd do not match x")
	}
	i := 0
	if haveFMA && x.Cols > 0 {
		var xh, inv *float64
		for ; i+4 <= x.Rows; i += 4 {
			if xhat != nil {
				xh, inv = &xhat.Data[i*x.Cols], &invStd[i]
			}
			layerNorm4(&y.Data[i*x.Cols], xh, inv, &x.Data[i*x.Cols], &g[0], &b[0], x.Cols, eps)
		}
	}
	for ; i < x.Rows; i++ {
		var xh Vector
		var inv *float64
		if xhat != nil {
			xh, inv = xhat.Row(i), &invStd[i]
		}
		layerNormRow(y.Row(i), xh, inv, x.Row(i), g, b, eps)
	}
}

// layerNormRow is LayerNormRows' Go body for one row; xh and inv are nil
// in an evaluation forward.
func layerNormRow(out, xh Vector, inv *float64, row, g, b Vector, eps float64) {
	mu := row.Mean()
	is := 1 / math.Sqrt(row.VarianceAbout(mu)+eps)
	g, b, out = g[:len(row)], b[:len(row)], out[:len(row)]
	if xh == nil {
		for j, v := range row {
			h := (v - mu) * is
			out[j] = h*g[j] + b[j]
		}
		return
	}
	*inv = is
	xh = xh[:len(row)]
	for j, v := range row {
		h := (v - mu) * is
		xh[j] = h
		out[j] = h*g[j] + b[j]
	}
}

// LayerNormRowsGrad is LayerNormRows' backward pass: from the output
// gradient dy and the forward's xhat and invStd it writes the input
// gradient
//
//	dx_i = inv_i/N · (N·dxhat_i − Σ_j dxhat_ij − xhat_i·Σ_j dxhat_ij·xhat_ij),
//	dxhat_ij = dy_ij·g_j,
//
// and the gain and bias gradients dg_j = Σ_i dy_ij·xhat_ij, db_j = Σ_i dy_ij
// (overwritten, summed in row order from +0).
func LayerNormRowsGrad(dx *Matrix, dg, db Vector, dy, xhat *Matrix, invStd, g Vector) {
	n := dy.Cols
	if dx.Rows != dy.Rows || dx.Cols != n || xhat.Rows != dy.Rows || xhat.Cols != n ||
		len(invStd) != dy.Rows || len(g) != n || len(dg) != n || len(db) != n {
		panic(fmt.Sprintf("tensor: LayerNormRowsGrad shapes dx %dx%d, dy %dx%d, xhat %dx%d, invStd %d, g %d, dg %d, db %d",
			dx.Rows, dx.Cols, dy.Rows, n, xhat.Rows, xhat.Cols, len(invStd), len(g), len(dg), len(db)))
	}
	dg.Zero()
	db.Zero()
	i := 0
	if haveFMA && n > 0 {
		for ; i+4 <= dy.Rows; i += 4 {
			layerNormGrad4(&dx.Data[i*n], &dy.Data[i*n], &xhat.Data[i*n], &invStd[i], &g[0], &dg[0], &db[0], n)
		}
	}
	for ; i < dy.Rows; i++ {
		layerNormGradRow(dx.Row(i), dg, db, dy.Row(i), xhat.Row(i), invStd[i], g)
	}
}

// layerNormGradRow is LayerNormRowsGrad's Go body for one row.
func layerNormGradRow(out, dg, db, dy, xh Vector, inv float64, g Vector) {
	n := float64(len(dy))
	g, dg, db, xh, out = g[:len(dy)], dg[:len(dy)], db[:len(dy)], xh[:len(dy)], out[:len(dy)]
	var sumDxhat, sumDxhatXhat float64
	for j, gr := range dy {
		dxh := gr * g[j]
		sumDxhat += dxh
		sumDxhatXhat += dxh * xh[j]
		dg[j] += gr * xh[j]
		db[j] += gr
	}
	for j, gr := range dy {
		dxh := gr * g[j]
		out[j] = inv / n * (n*dxh - sumDxhat - xh[j]*sumDxhatXhat)
	}
}

// MaxPool2x2 is the 2×2, stride-2 max pool over a batch of flattened CHW
// rows (c channels of h×w; odd extents drop the last row or column): y is
// x.Rows × c·(h/2)·(w/2). Each window's scan is seeded with its first
// element and takes a later one only if it is greater, so ties keep the
// earlier element and a NaN or −Inf seed comes out as itself. A training
// forward passes argmax (y's length) to receive each winner's index within
// its input row; an evaluation forward passes nil.
func MaxPool2x2(y *Matrix, argmax []int, x *Matrix, c, h, w int) {
	oh, ow := h/2, w/2
	if oh < 1 || ow < 1 || x.Cols != c*h*w || y.Rows != x.Rows || y.Cols != c*oh*ow || argmax != nil && len(argmax) != len(y.Data) {
		panic(fmt.Sprintf("tensor: MaxPool2x2 x %dx%d, y %dx%d, argmax %d for %d×%d×%d", x.Rows, x.Cols, y.Rows, y.Cols, len(argmax), c, h, w))
	}
	if haveFMA && ow%4 == 0 && len(y.Data) > 0 {
		var arg *int
		if argmax != nil {
			arg = &argmax[0]
		}
		maxPool4(&y.Data[0], arg, &x.Data[0], x.Rows, c, h, w)
		return
	}
	for n := 0; n < x.Rows; n++ {
		var arg []int
		if argmax != nil {
			arg = argmax[n*y.Cols : (n+1)*y.Cols]
		}
		maxPoolRow(y.Row(n), arg, x.Row(n), c, h, w)
	}
}

// maxPoolRow is MaxPool2x2's Go body for one sample; arg is nil in an
// evaluation forward.
func maxPoolRow(out Vector, arg []int, in Vector, c, h, w int) {
	oh, ow := h/2, w/2
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				first := ch*h*w + 2*oy*w + 2*ox
				best, bestIdx := in[first], first
				for _, idx := range [3]int{first + 1, first + w, first + w + 1} {
					if in[idx] > best {
						best, bestIdx = in[idx], idx
					}
				}
				oi := ch*oh*ow + oy*ow + ox
				out[oi] = best
				if arg != nil {
					arg[oi] = bestIdx
				}
			}
		}
	}
}

// Add writes dst = a + b element-wise, a's element the first operand of
// each addition. It panics if the lengths differ.
func Add(dst, a, b Vector) {
	assertSameLen(len(dst), len(a), "Add")
	assertSameLen(len(dst), len(b), "Add")
	if haveFMA {
		fmaAdd(dst, a, b)
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}
