//go:build amd64

package tensor

// AVX2+FMA implementations of the GEMM micro-kernels, selected at startup
// by CPUID. The pure-Go bodies in vector.go/matmul.go remain the
// portable fallback (and the reference the SIMD path is tested against in
// simd_test.go). FMA contracts the multiply-add rounding step, so the SIMD
// and generic paths differ in the last ulps; every replica in a simulated
// cluster runs the same path, so cross-replica determinism is unaffected.
// The Box–Muller, LayerNorm, max-pool and add kernels use no FMA and are
// bit-identical to their Go loops.

// haveFMA reports whether the CPU and OS support the AVX2+FMA kernels.
var haveFMA = detectFMA()

// ForcePortable makes every kernel run its pure-Go body until the returned
// restore is called: the switch TestPortableKernelsOnFMAHost flips, for
// tests in other packages that hold a property on both numeric paths. It
// returns nil where the pure-Go bodies are the only path already. Call it
// only while no kernel runs.
func ForcePortable() (restore func()) {
	if !haveFMA {
		return nil
	}
	haveFMA = false
	return func() { haveFMA = true }
}

func detectFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		cpuFMA     = 1 << 12
		cpuOSXSAVE = 1 << 27
		cpuAVX     = 1 << 28
		cpuAVX2    = 1 << 5 // leaf 7 EBX
	)
	_, _, ecx, _ := cpuidex(1, 0)
	if ecx&cpuFMA == 0 || ecx&cpuOSXSAVE == 0 || ecx&cpuAVX == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS must save/restore ymm state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	return ebx&cpuAVX2 != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// fmaDot returns <a, b> over len(a) elements; len(b) must be >= len(a).
//
//go:noescape
func fmaDot(a, b Vector) float64

// fmaAxpy computes dst += alpha*u over len(dst) elements.
//
//go:noescape
func fmaAxpy(alpha float64, dst, u Vector)

// fmaDot4 returns the dot products of a against b0..b3 in one pass.
//
//go:noescape
func fmaDot4(a, b0, b1, b2, b3 Vector) (s0, s1, s2, s3 float64)

// fmaAxpy4 computes dst += a0*u0 + a1*u1 + a2*u2 + a3*u3.
//
//go:noescape
func fmaAxpy4(dst, u0, u1, u2, u3 Vector, a0, a1, a2, a3 float64)

// fmaTile4x8 is the GEMM register tile: over the first cols columns of the
// 4-row strip of dst starting at *dst (row stride ldd), eight at a time and
// a masked last cols%8,
// dst[r][j] = (acc ? dst[r][j] : 0) + Σ_{t<depth} a[r·rsa+t·csa]·b[t·ldb+j],
// with the per-element FMA sequence of fmaAxpy4 over ascending t. It reads
// and writes exactly that footprint; depth must be ≥ 1.
//
//go:noescape
func fmaTile4x8(dst *float64, ldd int, a *float64, rsa, csa int, b *float64, ldb, depth, cols int, acc bool)

// fmaDotTile2x3 is the A·Bᵀ register tile: rows *a and *(a+lda) against
// 3·blocks consecutive rows of b (row stride ldb), all k long; the six dot
// products of each triple, each computed exactly as fmaDot4 computes one,
// are stored to (acc: added into) dst[r][3·blk+c]. blocks must be ≥ 1.
//
//go:noescape
func fmaDotTile2x3(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, k, blocks int, acc bool)

// fmaMul computes dst = a ⊙ b over len(dst) elements.
//
//go:noescape
func fmaMul(dst, a, b Vector)

// fmaSGDMom applies the fused momentum-SGD update over len(w) elements:
// v = mu*v + (g + wd*w); w -= lr*v. g is read-only.
//
//go:noescape
func fmaSGDMom(w, g, v Vector, lr, mu, wd float64)

// fmaAdam applies the fused Adam update over len(w) elements:
// m = b1*m + ob1*g; v = b2*v + ob2*g²; w -= lr*(m/c1)/(sqrt(v/c2)+eps),
// with ob1 = 1−b1 and ob2 = 1−b2 precomputed by the caller. g is
// read-only.
//
//go:noescape
func fmaAdam(w, g, m, v Vector, lr, b1, ob1, b2, ob2, c1, c2, eps float64)

// boxMuller4 writes dst[i] = mu + sigma·√(−2·log u1[i])·cos(2π·u2[i]) for
// i < n, four lanes at a time, each lane bit-identical to RNG.Norm's scalar
// math (see simd_amd64.s). n must be a multiple of 4, 0 < u1[i] < 1 and
// 0 ≤ u2[i] < 1.
//
//go:noescape
func boxMuller4(dst, u1, u2 *float64, n int, mu, sigma float64)

// uniformPairs4 draws sample i's two uniforms for i < n, a multiple of 4:
// u1[i] = unit(mix(s + (2i+1)·gamma)) and u2[i] = unit(mix(s + (2i+2)·gamma)),
// bit for bit the Go draws, four SplitMix64 lanes at a time. It returns the
// lowest i whose u1 is 0, where Norm redraws and the pairs stop being those
// positions' (the caller draws them again from there), or n.
//
//go:noescape
func uniformPairs4(u1, u2 *float64, n int, s uint64) int

// topKMask is TopKSelectAdd's candidate pass over n elements, a positive
// multiple of 64: with add non-nil it first folds v[i] = add[i] + v[i] in
// place (the Go loop's operand order), then sets bit i%64 of masks[i/64]
// iff magBits(v[i]) >= floor. It writes n/64 words.
//
//go:noescape
func topKMask(v, add *float64, n int, floor uint64, masks *uint64)

// fmaRelu writes y = max(x, 0) and mask = 1 where x > 0 (else 0).
//
//go:noescape
func fmaRelu(y, mask, x Vector)

// fmaAdd writes dst = a + b over len(dst) elements, a as each VADDPD's
// first source (Add's Go loop).
//
//go:noescape
func fmaAdd(dst, a, b Vector)

// layerNorm4 is LayerNormRows over four consecutive n-wide rows: the rows'
// sums run in the four lanes in column order, then each row's elementwise
// pass runs along the row. xhat and invStd are both nil (evaluation) or
// both set; n must be ≥ 1.
//
//go:noescape
func layerNorm4(y, xhat, invStd, x, gain, bias *float64, n int, eps float64)

// layerNormGrad4 is LayerNormRowsGrad over four consecutive n-wide rows:
// their Σdxhat and Σdxhat·xhat run in the four lanes in column order, the
// four rows are added into dg and db in row order, then each row's dx runs
// along the row. n must be ≥ 1.
//
//go:noescape
func layerNormGrad4(dx, dy, xhat, invStd, gain, dg, db *float64, n int)

// maxPool4 is MaxPool2x2 over rows samples of c×h×w, four windows per
// step; w/2 must be a positive multiple of 4. arg nil skips the indices.
//
//go:noescape
func maxPool4(y *float64, arg *int, x *float64, rows, c, h, w int)
