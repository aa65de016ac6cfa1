//go:build !amd64

package tensor

// Non-amd64 builds always take the portable Go kernels; haveFMA is a
// compile-time false so the SIMD branches fold away.
const haveFMA = false

// ForcePortable is a no-op returning nil: the pure-Go kernels are the only
// path here.
func ForcePortable() (restore func()) { return nil }

func fmaDot(a, b Vector) float64                                { panic("tensor: no SIMD") }
func fmaAxpy(alpha float64, dst, u Vector)                      { panic("tensor: no SIMD") }
func fmaDot4(a, b0, b1, b2, b3 Vector) (s0, s1, s2, s3 float64) { panic("tensor: no SIMD") }
func fmaAxpy4(dst, u0, u1, u2, u3 Vector, a0, a1, a2, a3 float64) {
	panic("tensor: no SIMD")
}
func fmaTile4x8(dst *float64, ldd int, a *float64, rsa, csa int, b *float64, ldb, depth, cols int, acc bool) {
	panic("tensor: no SIMD")
}
func fmaDotTile2x3(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, k, blocks int, acc bool) {
	panic("tensor: no SIMD")
}
func boxMuller4(dst, u1, u2 *float64, n int, mu, sigma float64) {
	panic("tensor: no SIMD")
}
func uniformPairs4(u1, u2 *float64, n int, s uint64) int { panic("tensor: no SIMD") }
func topKMask(v, add *float64, n int, floor uint64, masks *uint64) {
	panic("tensor: no SIMD")
}
func fmaMul(dst, a, b Vector)                      { panic("tensor: no SIMD") }
func fmaAdd(dst, a, b Vector)                      { panic("tensor: no SIMD") }
func fmaRelu(y, mask, x Vector)                    { panic("tensor: no SIMD") }
func fmaSGDMom(w, g, v Vector, lr, mu, wd float64) { panic("tensor: no SIMD") }
func fmaAdam(w, g, m, v Vector, lr, b1, ob1, b2, ob2, c1, c2, eps float64) {
	panic("tensor: no SIMD")
}
func layerNorm4(y, xhat, invStd, x, gain, bias *float64, n int, eps float64) {
	panic("tensor: no SIMD")
}
func layerNormGrad4(dx, dy, xhat, invStd, gain, dg, db *float64, n int) {
	panic("tensor: no SIMD")
}
func maxPool4(y *float64, arg *int, x *float64, rows, c, h, w int) { panic("tensor: no SIMD") }
