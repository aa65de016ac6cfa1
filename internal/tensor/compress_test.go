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
