// Package tensor provides the dense numeric substrate used throughout the
// SelSync reproduction: flat float64 vectors, row-major matrices, a
// deterministic SplitMix64-based random number generator and a small set of
// parallel kernels (matrix multiply, element-wise maps) tuned for the
// many-small-model workloads this repository trains.
//
// All operations are allocation-conscious: the hot-path kernels write into
// caller-provided destinations so training loops can reuse buffers across
// iterations.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a flat slice of float64 values. It is the exchange currency of
// the whole system: model parameters, gradients and optimizer state are all
// flattened into Vectors before they cross package boundaries (and, in the
// cluster simulator, before they cross the simulated network).
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// EnsureVector returns a length-n vector, reusing v's backing storage when
// it has enough capacity. Contents are unspecified (see EnsureMatrix).
func EnsureVector(v Vector, n int) Vector {
	if cap(v) < n {
		return NewVector(n)
	}
	return v[:n]
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Add computes v += u. It panics if the lengths differ.
func (v Vector) Add(u Vector) {
	assertSameLen(len(v), len(u), "Add")
	if haveFMA {
		fmaAxpy(1, v, u)
		return
	}
	for i, x := range u {
		v[i] += x
	}
}

// Sub computes v -= u. It panics if the lengths differ.
func (v Vector) Sub(u Vector) {
	assertSameLen(len(v), len(u), "Sub")
	if haveFMA {
		fmaAxpy(-1, v, u)
		return
	}
	for i, x := range u {
		v[i] -= x
	}
}

// Scale computes v *= a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Axpy computes v += a*u (the BLAS axpy kernel). It panics if the lengths
// differ. The body is unrolled four-wide to help the scalar float64
// pipeline overlap independent multiply-adds.
func (v Vector) Axpy(a float64, u Vector) {
	assertSameLen(len(v), len(u), "Axpy")
	if haveFMA {
		fmaAxpy(a, v, u)
		return
	}
	u = u[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += a * u[i]
		v[i+1] += a * u[i+1]
		v[i+2] += a * u[i+2]
		v[i+3] += a * u[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += a * u[i]
	}
}

// Dot returns the inner product <v, u>. It panics if the lengths differ.
// Four independent accumulators break the addition dependency chain that
// otherwise serializes the reduction at one element per add latency.
func (v Vector) Dot(u Vector) float64 {
	assertSameLen(len(v), len(u), "Dot")
	if haveFMA {
		return fmaDot(v, u)
	}
	u = u[:len(v)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * u[i]
		s1 += v[i+1] * u[i+1]
		s2 += v[i+2] * u[i+2]
		s3 += v[i+3] * u[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * u[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the squared L2 norm of v, accumulated four-wide like Dot.
func (v Vector) Norm2() float64 {
	if haveFMA {
		return fmaDot(v, v)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] * v[i]
		s1 += v[i+1] * v[i+1]
		s2 += v[i+2] * v[i+2]
		s3 += v[i+3] * v[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] * v[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the L2 norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 for vectors with
// fewer than one element.
func (v Vector) Variance() float64 { return v.VarianceAbout(v.Mean()) }

// VarianceAbout returns the mean squared deviation of v from m — Variance,
// for a caller that already holds v's Mean — or 0 for an empty vector.
func (v Vector) VarianceAbout(m float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Max returns the maximum element of v. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("tensor: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element of v. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("tensor: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the largest element of v, breaking ties in
// favour of the lowest index. It panics on an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best, arg := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, arg = x, i+1
		}
	}
	return arg
}

// CopyFrom copies u into v. It panics if the lengths differ.
func (v Vector) CopyFrom(u Vector) {
	assertSameLen(len(v), len(u), "CopyFrom")
	copy(v, u)
}

// Lerp sets v = (1-t)*v + t*u, the convex combination used by averaging
// aggregators. It panics if the lengths differ.
func (v Vector) Lerp(t float64, u Vector) {
	assertSameLen(len(v), len(u), "Lerp")
	for i, x := range u {
		v[i] = (1-t)*v[i] + t*x
	}
}

// AllFinite reports whether every element of v is a finite number.
func (v Vector) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Mul computes dst = a ⊙ b element-wise. It panics if the lengths differ.
// This is the masked-gradient kernel of the activation and dropout layers.
func Mul(dst, a, b Vector) {
	assertSameLen(len(dst), len(a), "Mul")
	assertSameLen(len(dst), len(b), "Mul")
	if haveFMA {
		fmaMul(dst, a, b)
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// ReluMask writes y = max(x, 0) and mask = 1 where x > 0 (else 0) in one
// pass — the branch-free forward of the ReLU layer, whose sign pattern is
// data-dependent and defeats the branch predictor in scalar form.
func ReluMask(y, mask, x Vector) {
	assertSameLen(len(y), len(x), "ReluMask")
	assertSameLen(len(mask), len(x), "ReluMask")
	if haveFMA {
		fmaRelu(y, mask, x)
		return
	}
	for i, v := range x {
		if v > 0 {
			y[i] = v
			mask[i] = 1
		} else {
			y[i] = 0
			mask[i] = 0
		}
	}
}

// Average overwrites dst with the element-wise mean of the given vectors.
// It panics if vs is empty or the lengths are inconsistent. This is the
// reduction kernel used by the parameter server for both gradient and
// parameter aggregation. The flat dimension is walked in combineBlock-sized
// blocks, shared with idle helper goroutines when the vector is large (see
// fanTask); each dst element is folded over vs in index order by exactly one
// goroutine, so the floating-point result is the same bit for bit at any
// GOMAXPROCS. It does not allocate.
func Average(dst Vector, vs []Vector) {
	weightedCombine(dst, vs, nil, 1/float64(len(vs)))
}

// WeightedAverage overwrites dst with sum_i w[i]*vs[i] / sum_i w[i].
// It panics if vs is empty, lengths mismatch, or the weights sum to zero.
// Like Average it is chunk-parallel over the flat parameter dimension.
func WeightedAverage(dst Vector, vs []Vector, w []float64) {
	if len(vs) != len(w) {
		panic("tensor: WeightedAverage arity mismatch")
	}
	var total float64
	for _, x := range w {
		total += x
	}
	if len(vs) > 0 && total == 0 {
		panic("tensor: WeightedAverage weights sum to zero")
	}
	weightedCombine(dst, vs, w, 1/total)
}

// CopyAll copies src into every destination vector — the parameter-server
// broadcast kernel. Like Average it walks the flat dimension in
// combineBlock-sized blocks, so one L1-sized src block is fanned out to all
// destinations while still hot in cache instead of streaming the full src
// from L2 once per destination. Destinations must not alias src. It panics
// on length mismatch.
func CopyAll(dsts []Vector, src Vector) {
	for _, d := range dsts {
		assertSameLen(len(d), len(src), "CopyAll")
	}
	if t := fanFor(len(src)/combineBlock, streamCost*len(src)*len(dsts)); t != nil {
		t.kern, t.vs, t.vec = kernCopyAll, dsts, src
		t.fan(len(src), t.blockGrain(len(src)))
		return
	}
	copyAllRange(dsts, src, 0, len(src))
}

// copyAllRange copies src[lo:hi] into every destination, one combineBlock
// at a time.
func copyAllRange(dsts []Vector, src Vector, lo, hi int) {
	for ; lo < hi; lo += combineBlock {
		end := min(lo+combineBlock, hi)
		s := src[lo:end]
		for _, d := range dsts {
			copy(d[lo:end], s)
		}
	}
}

// weightedCombine computes dst = scale * sum_i coef_i * vs[i], with coef_i
// taken from w (nil means all ones). The flat dimension is walked in
// L1-sized blocks so the destination block stays in cache across the zero /
// fold / scale passes combineRange makes (a whole-vector pass would stream
// a multi-MB dst through L2 four times); within a block, sources are folded
// four at a time through axpy4 so each pass over the destination carries
// four inputs.
func weightedCombine(dst Vector, vs []Vector, w []float64, scale float64) {
	if len(vs) == 0 {
		panic("tensor: Average of no vectors")
	}
	for _, v := range vs {
		assertSameLen(len(dst), len(v), "Average")
	}
	if t := fanFor(len(dst)/combineBlock, streamCost*len(dst)*len(vs)); t != nil {
		t.kern, t.vec, t.vs, t.w, t.scale = kernCombine, dst, vs, w, scale
		t.fan(len(dst), t.blockGrain(len(dst)))
		return
	}
	combineRange(dst, vs, w, scale, 0, len(dst))
}

// combineBlock is the element count of one reduction block: 2048
// float64s = 16 KiB, small enough that a dst block plus streaming source
// reads coexist in a 32 KiB L1d.
const combineBlock = 2048

// combineRange applies the weighted combination to dst[lo:hi], one
// combineBlock at a time.
func combineRange(dst Vector, vs []Vector, w []float64, scale float64, lo, hi int) {
	for ; lo < hi; lo += combineBlock {
		combineOne(dst, vs, w, scale, lo, min(lo+combineBlock, hi))
	}
}

// combineOne applies the weighted combination to the block dst[lo:hi].
func combineOne(dst Vector, vs []Vector, w []float64, scale float64, lo, hi int) {
	d := dst[lo:hi]
	d.Zero()
	foldBlock(d, vs, w, lo, hi)
	d.Scale(scale)
}

// Accumulate adds vs to dst in order — dst += vs[0], then += vs[1], … one
// rounding per addition — which is Average's fold without its zeroing and
// its scaling by 1/len(vs). A running sum carried through several calls, vs
// split anywhere, therefore ends bit-identical to the sum Average scales:
// zero a vector, Accumulate every part of vs in order, Scale by 1/len(vs),
// and the result is Average's. That is how the ranks of a mesh fold their
// own workers into one running mean (comm's relay round). It panics on a
// length mismatch and does not allocate.
func Accumulate(dst Vector, vs []Vector) {
	for _, v := range vs {
		assertSameLen(len(dst), len(v), "Accumulate")
	}
	for lo := 0; lo < len(dst); lo += combineBlock {
		hi := min(lo+combineBlock, len(dst))
		foldBlock(dst[lo:hi], vs, nil, lo, hi)
	}
}

// foldBlock adds coef_i·vs[i][lo:hi] to d for i ascending, four sources per
// pass over d; coef_i comes from w, nil meaning all ones.
func foldBlock(d Vector, vs []Vector, w []float64, lo, hi int) {
	coef := func(i int) float64 {
		if w == nil {
			return 1
		}
		return w[i]
	}
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		axpy4(d,
			coef(i), vs[i][lo:hi],
			coef(i+1), vs[i+1][lo:hi],
			coef(i+2), vs[i+2][lo:hi],
			coef(i+3), vs[i+3][lo:hi])
	}
	for ; i < len(vs); i++ {
		d.Axpy(coef(i), vs[i][lo:hi])
	}
}

func assertSameLen(a, b int, op string) {
	if a != b {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, a, b))
	}
}
