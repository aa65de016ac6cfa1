package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestTopKSelectBasics(t *testing.T) {
	v := Vector{0.1, -5, 3, -3, 0.2}
	idx, _ := TopKSelect(v, 2, nil, nil)
	want := []uint32{1, 2}
	if len(idx) != len(want) {
		t.Fatalf("topk = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("topk = %v, want %v", idx, want)
		}
	}
}

func TestTopKSelectTiesPreferLowIndex(t *testing.T) {
	v := Vector{1, -1, 1, -1, 1}
	idx, _ := TopKSelect(v, 3, nil, nil)
	want := []uint32{0, 1, 2}
	if len(idx) != 3 {
		t.Fatalf("topk len = %d, want 3 (%v)", len(idx), idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ties: topk = %v, want %v", idx, want)
		}
	}
}

func TestTopKSelectEdges(t *testing.T) {
	v := Vector{3, 1, 2}
	if idx, _ := TopKSelect(v, 0, nil, nil); len(idx) != 0 {
		t.Fatalf("k=0: got %v", idx)
	}
	if idx, _ := TopKSelect(v, 3, nil, nil); len(idx) != 3 {
		t.Fatalf("k=n: got %v", idx)
	}
	if idx, _ := TopKSelect(v, 10, nil, nil); len(idx) != 3 {
		t.Fatalf("k>n: got %v", idx)
	}
}

// The selection must agree with a reference sort-based selection and be
// invariant across repeats (scratch reuse must not leak state).
func TestTopKSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch []float64
	var idx []uint32
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(n)
		v := make(Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				v[i] = math.Copysign(1.0, v[i]) // force magnitude ties
			}
		}
		idx, scratch = TopKSelect(v, k, idx[:0], scratch)
		if len(idx) != k {
			t.Fatalf("trial %d: got %d indices, want %d", trial, len(idx), k)
		}
		if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
			t.Fatalf("trial %d: indices not ascending: %v", trial, idx)
		}
		// Reference: stable sort by (-|v|, position), take first k.
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			aa, ab := math.Abs(v[ref[a]]), math.Abs(v[ref[b]])
			if aa != ab {
				return aa > ab
			}
			return ref[a] < ref[b]
		})
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)
		for i := range want {
			if int(idx[i]) != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): selection %v, want %v", trial, n, k, idx, want)
			}
		}
		// Repeat with dirty scratch: identical result.
		idx2, _ := TopKSelect(v, k, nil, scratch)
		for i := range idx {
			if idx[i] != idx2[i] {
				t.Fatalf("trial %d: repeat diverged: %v vs %v", trial, idx, idx2)
			}
		}
	}
}

// topKReference is the selection's definition: stable-sort positions by
// descending magnitude bits, take the first k, report them ascending.
func topKReference(v Vector, k int) []uint32 {
	ref := make([]uint32, len(v))
	for i := range ref {
		ref[i] = uint32(i)
	}
	sort.SliceStable(ref, func(a, b int) bool { return magBits(v[ref[a]]) > magBits(v[ref[b]]) })
	want := append([]uint32(nil), ref[:min(max(k, 0), len(v))]...)
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	return want
}

func checkTopKAgainstReference(t *testing.T, v Vector, k int) {
	t.Helper()
	got, _ := TopKSelect(v, k, nil, nil)
	want := topKReference(v, k)
	if len(got) != len(want) {
		t.Fatalf("n=%d k=%d: selected %d positions, want %d", len(v), k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d k=%d: position %d of the selection is %d, want %d", len(v), k, i, got[i], want[i])
		}
	}
}

// withSharedPrefix returns n values whose magnitudes agree on their `bits`
// leading bits and differ below, signs mixed, with repeats — so the select
// cannot settle before the digit that holds magnitude bit 62−bits.
func withSharedPrefix(rng *rand.Rand, n int, bits uint) Vector {
	free := 63 - bits
	prefix := math.Float64bits(1.5) >> free << free
	v := make(Vector, n)
	for i := range v {
		low := rng.Uint64() & (1<<free - 1)
		if rng.Intn(4) == 0 {
			low &= 3 // crowd a few patterns: ties at every level
		}
		v[i] = math.Float64frombits(prefix | low | uint64(rng.Intn(2))<<63)
	}
	return v
}

// The cases |x| leaves open or makes slow, at sizes up to the benchmark's
// 213k and beyond: constant vectors, values that share their leading 15,
// 30, 45 and 60 magnitude bits (every refinement level runs), subnormals,
// −0 against +0, NaN above ±Inf above everything finite.
func TestTopKSelectTable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	normal := func(n int) Vector {
		v := make(Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	special := normal(5000)
	for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.NaN(), math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001)} {
		special[37+401*i] = x
	}
	subnormal := make(Vector, 3000)
	for i := range subnormal {
		subnormal[i] = math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(rng.Intn(2))<<63)
	}
	zeros := make(Vector, 1000)
	for i := range zeros {
		if i%3 == 0 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	sparse := make(Vector, 4000) // fewer non-zeros than k: the threshold is zero
	for i := 0; i < len(sparse); i += 97 {
		sparse[i] = rng.NormFloat64()
	}
	constant := make(Vector, 300_000)
	constant.Fill(-0.75)
	for _, tc := range []struct {
		name string
		v    Vector
	}{
		{"normal-213k", normal(213_156)},
		{"constant-300k", constant},
		{"zeros-mixed-sign", zeros},
		{"sparse", sparse},
		{"subnormal", subnormal},
		{"nan-inf", special},
		{"shared-15-bits", withSharedPrefix(rng, 300_000, 15)},
		{"shared-30-bits", withSharedPrefix(rng, 50_000, 30)},
		{"shared-45-bits", withSharedPrefix(rng, 50_000, 45)},
		{"shared-60-bits", withSharedPrefix(rng, 50_000, 60)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.v)
			for _, k := range []int{1, 2, n / 100, n / 2, n - 1} {
				checkTopKAgainstReference(t, tc.v, k)
			}
		})
	}
}

// TopKSelectAdd is TopKSelect of the sum, and leaves the sum in v.
func TestTopKSelectAddFoldsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 40, 999, 1000} {
		v, add := make(Vector, 1000), make(Vector, 1000)
		for i := range v {
			v[i], add[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		sum := v.Clone()
		for i, a := range add {
			sum[i] = a + sum[i]
		}
		got := TopKSelectAdd(v, add, k, nil)
		for i := range sum {
			if math.Float64bits(v[i]) != math.Float64bits(sum[i]) {
				t.Fatalf("k=%d: v[%d] = %v after the fold, want %v", k, i, v[i], sum[i])
			}
		}
		want, _ := TopKSelect(sum, k, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("k=%d: selected %d positions, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: selection %v, want %v", k, got, want)
			}
		}
	}
}

// FuzzTopKSelect holds the histogram select to its definition on
// fuzzer-chosen bit patterns: every eight bytes of data are one float64,
// whatever they spell (NaN payloads, infinities, subnormals), and the few
// distinct patterns a short input affords are tiled so ties are the rule.
func FuzzTopKSelect(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bits(0.1, -5, 3, -3, 0.2), uint16(2), uint8(1))
	f.Add(bits(1, -1, 1, -1, 1), uint16(3), uint8(7))
	f.Add(bits(math.NaN(), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324), uint16(4), uint8(3))
	f.Add(bits(1.5, math.Nextafter(1.5, 2), math.Nextafter(1.5, 1)), uint16(100), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, tile uint8) {
		var v Vector
		for rep := 0; rep <= int(tile); rep++ {
			for off := 0; off+8 <= len(data); off += 8 {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			}
		}
		checkTopKAgainstReference(t, v, int(k))
	})
}

// checkTopKSelectAdd holds TopKSelectAdd(v, add, k) to its definition on
// the current kernel path and, on an AVX2 host, on the portable one: v
// becomes add[i] + v[i] — the bits of the Go loop, NaN payloads included —
// and the selection is topKReference of that sum. Both operands run flush
// against a guard page, so a read past either end faults. v and add are
// left as passed.
func checkTopKSelectAdd(t *testing.T, v, add Vector, k int) {
	t.Helper()
	sum := v.Clone()
	for i, a := range add {
		sum[i] = a + sum[i]
	}
	want := topKReference(sum, k)
	flush := func(x Vector) Vector {
		slab := guardedArena(t, len(x))
		slab = slab[len(slab)-len(x):]
		copy(slab, x)
		return slab
	}
	if add != nil {
		add = flush(add)
	}
	check := func() {
		t.Helper()
		got := flush(v)
		idx := TopKSelectAdd(got, add, k, nil)
		for i := range sum {
			if g, w := math.Float64bits(got[i]), math.Float64bits(sum[i]); g != w {
				t.Fatalf("n=%d k=%d fma=%v: v[%d] = %#x after the fold, want %#x", len(v), k, haveFMA, i, g, w)
			}
		}
		if len(idx) != len(want) {
			t.Fatalf("n=%d k=%d fma=%v: selected %d positions, want %d", len(v), k, haveFMA, len(idx), len(want))
		}
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("n=%d k=%d fma=%v: position %d of the selection is %d, want %d", len(v), k, haveFMA, i, idx[i], want[i])
			}
		}
	}
	check()
	if restore := ForcePortable(); restore != nil {
		defer restore()
		check()
	}
}

// onSampleGrid reports whether topKFloor samples position i of an n-long v.
func onSampleGrid(n, i int) bool {
	stride := n / 8 / topKSampleRuns * 8
	return n >= topKSampleMin && i < topKSampleRuns*stride && i%stride < 8
}

// TestTopKSelectAddRetry puts every large magnitude off the sample grid: the
// sampled floor then admits fewer than k candidates, and the select must
// repeat its pass at floor 0 on the folded v.
func TestTopKSelectAddRetry(t *testing.T) {
	const n = 213_060
	rng := rand.New(rand.NewSource(3))
	v, add := make(Vector, n), make(Vector, n)
	large := 0
	for i := range v {
		switch {
		case onSampleGrid(n, i):
			v[i] = 1
		case rng.Intn(2000) == 0:
			v[i] = 1e3 * rng.NormFloat64()
			large++
		default:
			v[i] = 1e-3 * rng.NormFloat64()
		}
		add[i] = 1e-6 * rng.NormFloat64()
	}
	for _, k := range []int{n / 50, n / 20} {
		floor := topKFloor(v, nil, k)
		if above := 8*topKSampleRuns + large; floor != magBits(1) || above >= k {
			t.Fatalf("k=%d: floor %#x admits %d, want magBits(1) admitting fewer than k", k, floor, above)
		}
		checkTopKSelectAdd(t, v, nil, k)
		checkTopKSelectAdd(t, v, add, k)
	}
}

// Lengths off the kernel's 64-element words and 4096-element blocks, below
// and above the sampled size.
func TestTopKSelectAddRaggedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 63, 65, 127, 4096 + 1, 5*4096 + 3*64 + 17, topKSampleMin - 1, topKSampleMin + 63, 213_060} {
		v, add := make(Vector, n), make(Vector, n)
		for i := range v {
			v[i], add[i] = rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(7) == 0 {
				v[i] = math.Copysign(1, v[i]) // magnitude ties across the blocks
			}
		}
		for _, k := range []int{1, n / 100, n / 2, n - 1} {
			checkTopKSelectAdd(t, v, nil, k)
			checkTopKSelectAdd(t, v, add, k)
		}
	}
}

// All-zero and constant messages: every sample is the floor, every element
// a candidate, and the threshold one bit pattern. Signed zeros fold to +0
// or −0 as the Go loop's adds do.
func TestTopKSelectAddDegenerate(t *testing.T) {
	const n = 213_060
	zeros, negZeros, constant := make(Vector, n), make(Vector, n), make(Vector, n)
	constant.Fill(-0.75)
	for i := range negZeros {
		if i%3 == 0 {
			negZeros[i] = math.Copysign(0, -1)
		}
	}
	for _, k := range []int{1, n / 100, n / 2} {
		checkTopKSelectAdd(t, zeros, nil, k)
		checkTopKSelectAdd(t, zeros, zeros, k)
		checkTopKSelectAdd(t, negZeros, negZeros, k)
		checkTopKSelectAdd(t, constant, nil, k)
		checkTopKSelectAdd(t, constant, zeros, k)
		checkTopKSelectAdd(t, zeros, constant, k)
	}
}

// NaN + NaN keeps one operand's payload — on x86 the first source's, add's
// in the Go loop — so the kernel's fold must add in the loop's order. Every
// lane here is two NaNs with different payloads and signs, beside NaN +
// finite and ±Inf lanes.
func TestTopKSelectAddNaNFold(t *testing.T) {
	const n = 32_768 + 3*64 + 5
	rng := rand.New(rand.NewSource(13))
	nan := func() float64 {
		return math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&(1<<52-1) | 1 | uint64(rng.Intn(2))<<63)
	}
	v, add := make(Vector, n), make(Vector, n)
	for i := range v {
		v[i], add[i] = nan(), nan()
		switch i % 97 {
		case 0:
			v[i] = rng.NormFloat64()
		case 1:
			add[i] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	for _, k := range []int{1, n / 100, n / 2} {
		checkTopKSelectAdd(t, v, add, k)
	}
}

// FuzzTopKSelectAdd holds fold + select to fold-then-topKReference on
// fuzzer bit patterns for both operands: every eight bytes of vData (addData)
// are one float64 of v (add), tiled out to n elements, which reach past
// topKSampleMin so both the sampled floor and the floor-0 retry run. Short
// addData means no fold. Both kernel paths.
func FuzzTopKSelectAdd(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(bits(0.1, -5, 3, -3, 0.2), bits(1, 2), uint16(1000), uint16(7))
	f.Add(bits(1, -1, 1, -1, 1), []byte(nil), uint16(20_000), uint16(300))
	f.Add(bits(math.NaN(), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324), bits(-math.NaN(), math.Inf(1)), uint16(17_000), uint16(170))
	// A 128-float period against n = 32 768 (sample stride 128): the grid
	// sees only the eight 1s, so the floor admits 256·9 < k elements.
	period := make([]float64, 128)
	for i := range period {
		period[i] = 1e-3 * float64(i)
	}
	for i := range 8 {
		period[i] = 1
	}
	period[77] = 1e3
	f.Add(bits(period...), bits(1e-9), uint16(32_768), uint16(4000))
	f.Fuzz(func(t *testing.T, vData, addData []byte, size, kk uint16) {
		tile := func(data []byte, n int) Vector {
			if len(data) < 8 {
				return nil
			}
			x := make(Vector, n)
			for i := range x {
				off := 8 * (i % (len(data) / 8))
				x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
			return x
		}
		n := int(size) % (3 * topKSampleMin)
		v, add := tile(vData, n), tile(addData, n)
		if v == nil {
			v = make(Vector, n)
		}
		k := int(kk) % (n + 2)
		checkTopKSelectAdd(t, v, add, k)
	})
}

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{8, 16} {
		n := 333
		src := make(Vector, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 3
		}
		q := make([]byte, n*bits/8)
		lo, scale := QuantizeChunk(src, bits, q)
		dst := make(Vector, n)
		DequantizeChunk(dst, bits, q, lo, scale)
		for i := range src {
			if err := math.Abs(dst[i] - src[i]); err > scale/2*(1+1e-9) {
				t.Fatalf("bits=%d: elem %d error %g exceeds scale/2=%g", bits, i, err, scale/2)
			}
		}
		// Determinism: re-encoding the decoded values reproduces them exactly.
		q2 := make([]byte, len(q))
		lo2, scale2 := QuantizeChunk(src, bits, q2)
		if lo2 != lo || scale2 != scale {
			t.Fatalf("bits=%d: repeat changed scalars", bits)
		}
		for i := range q {
			if q[i] != q2[i] {
				t.Fatalf("bits=%d: repeat changed level %d", bits, i)
			}
		}
	}
}

func TestQuantizeConstantChunk(t *testing.T) {
	src := Vector{2.5, 2.5, 2.5}
	q := make([]byte, 3)
	lo, scale := QuantizeChunk(src, 8, q)
	if scale != 0 || lo != 2.5 {
		t.Fatalf("constant chunk: lo=%g scale=%g", lo, scale)
	}
	dst := make(Vector, 3)
	DequantizeChunk(dst, 8, q, lo, scale)
	for _, x := range dst {
		if x != 2.5 {
			t.Fatalf("constant chunk decode = %v", dst)
		}
	}
}

func TestQuantizeExtremesExact(t *testing.T) {
	// min and max of the chunk reconstruct to themselves up to one scale
	// rounding; the min maps to level 0 → exactly lo.
	src := Vector{-1, 0.25, 1}
	q := make([]byte, 3)
	lo, scale := QuantizeChunk(src, 8, q)
	dst := make(Vector, 3)
	DequantizeChunk(dst, 8, q, lo, scale)
	if dst[0] != -1 {
		t.Fatalf("min should decode exactly: got %g", dst[0])
	}
	if math.Abs(dst[2]-1) > scale/2 {
		t.Fatalf("max decode error %g", math.Abs(dst[2]-1))
	}
}
