package tensor

import (
	"math"
	mathbits "math/bits"
)

// Compression kernels for the wire codecs: deterministic top-k magnitude
// selection and linear fixed-point quantization. These are the
// platform-independent primitives internal/comm builds its SEL1 payload
// codecs from; everything here is exact-arithmetic or round-to-nearest on
// float64, so encode → decode is bit-identical across loopback and TCP
// backends and across repeats — the property the digest contract leans on.

// TopKSelect appends to idx the positions of the k largest-magnitude
// elements of v, in ascending position order. Ties at the threshold
// magnitude resolve in ascending position order, so the selected set is a
// pure function of (v, k) — no pivots, no platform-dependent sort order.
//
// Magnitude is the order of the IEEE-754 bits with the sign cleared, which
// on finite values and ±Inf is the order of |x|. It also defines the cases
// |x| leaves open: −0 ties with +0, every NaN ranks above +Inf, and NaNs
// order among themselves by payload. scratch is unused — the working set
// lives on the stack — and returned as passed.
func TopKSelect(v Vector, k int, idx []uint32, scratch []float64) ([]uint32, []float64) {
	return TopKSelectAdd(v, nil, k, idx), scratch
}

// The select reads a magnitude (63 bits) as five digits, most significant
// first: bits 62–48 (the exponent and four mantissa bits), 47–33, 32–18,
// 17–3 and 2–0. Fifteen bits a digit makes the histogram 128 KiB, the most
// the compiler keeps on the stack, so the select carries no scratch state.
//
// Above topKSampleMin elements the candidates' floor comes from a sample of
// topKSampleRuns runs of eight consecutive elements (a cache line each) at a
// fixed stride: at most an eighth of v. The candidate pass hands v to the
// mask kernel topKBlock elements at a time.
const (
	topKDigitBits  = 15
	topKTopShift   = 63 - topKDigitBits
	topKSampleRuns = 256
	topKSampleMin  = 64 * topKSampleRuns
	topKBlock      = 4096
)

// magBits is the IEEE-754 representation of x with the sign cleared.
func magBits(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// TopKSelectAdd is TopKSelect fused with an error-feedback fold: it first
// adds add to v in place (element i becomes add[i] + v[i]; add nil: v as it
// is), then selects from the sum. It reads v once, whatever its values:
//
//   - A fixed sample of the sum (not stored) sets a floor: the r-th largest
//     of s sampled magnitudes, r = ⌈2k·s/n⌉ + 8, so about 2k elements
//     reach it. A short v, or an r past the sample, has floor 0.
//   - One pass folds, collects every position at or above the floor and
//     histograms the candidates' leading digit. With AVX2 a kernel folds
//     and compares a block at a time and leaves one bit per element.
//   - Fewer than k candidates (large values the sample missed) repeat the
//     pass on the folded v with floor 0.
//
// The histogram names the bucket holding the k-th largest. Only the
// candidates are then refined, one digit a level, until the threshold
// bucket is taken whole or holds a single bit pattern.
func TopKSelectAdd(v, add Vector, k int, idx []uint32) []uint32 {
	n := len(v)
	if k <= 0 || k >= n {
		if add != nil {
			v.Add(add)
		}
		for i := 0; k > 0 && i < n; i++ {
			idx = append(idx, uint32(i))
		}
		return idx
	}
	if add != nil {
		add = add[:n]
	}
	var hist [1 << topKDigitBits]uint32
	base := len(idx)
	idx, top := topKCollect(v, add, topKFloor(v, add, k), idx, &hist)
	if len(idx)-base < k {
		hist = [1 << topKDigitBits]uint32{}
		idx, top = topKCollect(v, nil, 0, idx[:base], &hist)
	}
	// The threshold so far: its digits down to bit shift are prefix. Every
	// magnitude above prefix is selected; of the members magnitudes that
	// share it, need are.
	shift := uint(topKTopShift)
	prefix, need, members := kthBucket(&hist, top, k)
	cand := idx[base:]
	for shift > 0 && need < members {
		width := min(shift, topKDigitBits)
		hist = [1 << topKDigitBits]uint32{}
		or, and := uint64(0), ^uint64(0)
		for _, i := range cand {
			if m := magBits(v[i]); m>>shift == prefix {
				hist[m>>(shift-width)&(1<<width-1)]++
				or |= m
				and &= m
			}
		}
		if or == and {
			// One bit pattern fills the bucket — the zeros of a sparse message,
			// a constant vector — so it is the threshold: no digit splits it.
			prefix, shift = or, 0
			break
		}
		var digit uint64
		digit, need, members = kthBucket(&hist, 1<<width-1, need)
		prefix = prefix<<width | digit
		shift -= width
	}
	// Emit in position order: above the threshold prefix always, at it until
	// the budget is spent — low positions first.
	idx = idx[:base]
	for _, i := range cand {
		p := magBits(v[i]) >> shift
		if p > prefix {
			idx = append(idx, i)
		} else if p == prefix && need > 0 {
			idx = append(idx, i)
			need--
		}
		if len(idx)-base == k {
			break
		}
	}
	return idx
}

// topKFloor is the candidates' floor for the k largest magnitudes of
// add + v (add nil: v): the r-th largest of a fixed sample, or 0.
func topKFloor(v, add Vector, k int) uint64 {
	n := len(v)
	if n < topKSampleMin {
		return 0
	}
	var sample [8 * topKSampleRuns]uint64
	s := len(sample)
	r := int((2*uint64(k)*uint64(s)+uint64(n)-1)/uint64(n)) + 8
	if r > s {
		return 0
	}
	stride := n / 8 / topKSampleRuns * 8
	for j := 0; j < topKSampleRuns; j++ {
		run, out := v[j*stride:][:8], sample[8*j:][:8]
		if add != nil {
			a := add[j*stride:][:8]
			for e, x := range run {
				out[e] = magBits(a[e] + x)
			}
		} else {
			for e, x := range run {
				out[e] = magBits(x)
			}
		}
	}
	return kthLargest(sample[:], r)
}

// kthLargest returns the r-th largest (1-based) element of s, reordering s:
// Hoare's FIND. Its partition splits runs of repeats evenly, so an all-zero
// or constant sample costs no more than a varied one.
func kthLargest(s []uint64, r int) uint64 {
	r--
	lo, hi := 0, len(s)-1
	for lo < hi {
		x := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] > x {
				i++
			}
			for x > s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j < r {
			lo = i
		}
		if r < i {
			hi = j
		}
	}
	return s[r]
}

// topKCollect folds add into v (add nil: no fold) and appends to idx, in
// ascending order, every position whose magnitude is at least floor,
// counting the candidates' leading digits in hist. It returns idx and the
// highest digit counted. With AVX2, topKMask folds and compares whole
// 64-element words of a block and Go walks the set bits; the rest, and
// every element on other hosts, takes the loop below.
func topKCollect(v, add Vector, floor uint64, idx []uint32, hist *[1 << topKDigitBits]uint32) ([]uint32, uint64) {
	var top uint64
	done := 0
	if haveFMA {
		var masks [topKBlock / 64]uint64
		var a *float64
		for end := len(v) &^ 63; done < end; {
			m := min(topKBlock, end-done)
			if add != nil {
				a = &add[done]
			}
			topKMask(&v[done], a, m, floor, &masks[0])
			for w, bits := range masks[:m/64] {
				for ; bits != 0; bits &= bits - 1 {
					i := done + 64*w + mathbits.TrailingZeros64(bits)
					d := magBits(v[i]) >> topKTopShift
					hist[d]++
					top = max(top, d)
					idx = append(idx, uint32(i))
				}
			}
			done += m
		}
	}
	// The fold keeps a loop of its own, in this form: Go may commute a
	// float add, which decides the payload NaN + NaN keeps, and this form
	// compiles with add as ADDSD's destination — topKMask's operand order
	// (TestTopKSelectAddNaNFold fails on a merged loop).
	if add != nil {
		for i, a := range add[done:] {
			i += done
			x := a + v[i]
			v[i] = x
			if m := magBits(x); m >= floor {
				d := m >> topKTopShift
				hist[d]++
				top = max(top, d)
				idx = append(idx, uint32(i))
			}
		}
		return idx, top
	}
	for i, x := range v[done:] {
		if m := magBits(x); m >= floor {
			d := m >> topKTopShift
			hist[d]++
			top = max(top, d)
			idx = append(idx, uint32(done+i))
		}
	}
	return idx, top
}

// kthBucket walks a digit histogram down from bucket top (none above it
// counts anything) to the bucket holding the k-th largest element, and
// returns it, how many of its members rank at or above the k-th, and how
// many members it has.
func kthBucket(hist *[1 << topKDigitBits]uint32, top uint64, k int) (bucket uint64, need, members int) {
	for b := top; ; b-- {
		c := int(hist[b])
		if c >= k {
			return b, k, c
		}
		k -= c
	}
}

// QuantLevels returns the number of representable steps for a linear
// quantizer of the given width (8 or 16 bits).
func QuantLevels(bits int) float64 {
	return float64(uint64(1)<<uint(bits) - 1)
}

// QuantizeChunk maps src onto bits-wide fixed-point levels with the affine
// code q = round((x−lo)/scale), lo = min(src), scale = (max−min)/levels,
// and writes the levels little-endian into q (1 byte per element for 8
// bits, 2 for 16). A constant chunk quantizes with scale 0: every level is
// 0 and dequantization reproduces lo exactly. Returns (lo, scale) — the
// two scalars the wire frame carries alongside the levels.
func QuantizeChunk(src Vector, bits int, q []byte) (lo, scale float64) {
	if len(src) == 0 {
		return 0, 0
	}
	lo, hi := src[0], src[0]
	for _, x := range src[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	levels := QuantLevels(bits)
	scale = (hi - lo) / levels
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		// Constant chunk (or garbage input): emit all-zero levels so the
		// decode side reproduces lo for every element.
		scale = 0
		for i := range q[:len(src)*bits/8] {
			q[i] = 0
		}
		return lo, scale
	}
	inv := 1 / scale
	switch bits {
	case 8:
		for i, x := range src {
			q[i] = byte(clampLevel((x-lo)*inv, levels))
		}
	case 16:
		for i, x := range src {
			l := clampLevel((x-lo)*inv, levels)
			q[2*i] = byte(l)
			q[2*i+1] = byte(l >> 8)
		}
	default:
		panic("tensor: quantize width must be 8 or 16 bits")
	}
	return lo, scale
}

func clampLevel(x, levels float64) uint32 {
	l := math.Floor(x + 0.5)
	if l < 0 {
		return 0
	}
	if l > levels {
		return uint32(levels)
	}
	return uint32(l)
}

// DequantizeChunk inverts QuantizeChunk: dst[i] = lo + scale·level[i].
// The reconstruction uses only the wire scalars, so the sender's local
// dequantization (for error feedback) and every receiver's are bit-equal.
func DequantizeChunk(dst Vector, bits int, q []byte, lo, scale float64) {
	switch bits {
	case 8:
		for i := range dst {
			dst[i] = lo + scale*float64(q[i])
		}
	case 16:
		for i := range dst {
			dst[i] = lo + scale*float64(uint32(q[2*i])|uint32(q[2*i+1])<<8)
		}
	default:
		panic("tensor: dequantize width must be 8 or 16 bits")
	}
}
