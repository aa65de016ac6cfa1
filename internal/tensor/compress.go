package tensor

import "math"

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
// is a fixed-size histogram — and returned as passed.
func TopKSelect(v Vector, k int, idx []uint32, scratch []float64) ([]uint32, []float64) {
	return TopKSelectAdd(v, nil, k, idx), scratch
}

// The select reads a magnitude (63 bits) as five digits, most significant
// first: bits 62–48 (the exponent and four mantissa bits), 47–33, 32–18,
// 17–3 and 2–0. Fifteen bits a digit makes the histogram 128 KiB, the most
// the compiler keeps on the stack, so the select carries no scratch state.
const (
	topKDigitBits = 15
	topKTopShift  = 63 - topKDigitBits
)

// magBits is the IEEE-754 representation of x with the sign cleared.
func magBits(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// TopKSelectAdd is TopKSelect fused with an error-feedback fold: it first
// adds add to v in place (add nil: v as it is), then selects from the sum.
// Two passes over v, whatever its values: the first folds and histograms
// the leading digit of every magnitude, which names the bucket holding the
// k-th largest; the second collects the positions at or above that bucket.
// Only those candidates are then refined, one digit a level, until the
// threshold bucket is taken whole or holds a single bit pattern.
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
	var hist [1 << topKDigitBits]uint32
	if add != nil {
		for i, a := range add[:n] {
			x := a + v[i]
			v[i] = x
			hist[magBits(x)>>topKTopShift]++
		}
	} else {
		for _, x := range v {
			hist[magBits(x)>>topKTopShift]++
		}
	}
	// The threshold so far: its digits down to bit shift are prefix. Every
	// magnitude above prefix is selected; of the members magnitudes that
	// share it, need are.
	shift := uint(topKTopShift)
	prefix, need, members := kthBucket(&hist, k)
	base := len(idx)
	floor := prefix << shift
	for i, x := range v {
		if magBits(x) >= floor {
			idx = append(idx, uint32(i))
		}
	}
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
		digit, need, members = kthBucket(&hist, need)
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

// kthBucket walks a digit histogram from the top to the bucket holding the
// k-th largest element, and returns it, how many of its members rank at or
// above the k-th, and how many members it has.
func kthBucket(hist *[1 << topKDigitBits]uint32, k int) (bucket uint64, need, members int) {
	for b := len(hist) - 1; ; b-- {
		c := int(hist[b])
		if c >= k {
			return uint64(b), k, c
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
