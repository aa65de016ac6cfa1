package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{4, 5, 6}
	v.Add(u)
	want := Vector{5, 7, 9}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Add: got %v want %v", v, want)
		}
	}
	v.Sub(u)
	want = Vector{1, 2, 3}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Sub: got %v want %v", v, want)
		}
	}
}

func TestVectorScaleAxpy(t *testing.T) {
	v := Vector{1, -2, 3}
	v.Scale(2)
	if v[0] != 2 || v[1] != -4 || v[2] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
	v.Axpy(0.5, Vector{2, 2, 2})
	if v[0] != 3 || v[1] != -3 || v[2] != 7 {
		t.Fatalf("Axpy: got %v", v)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(v); got != 25 {
		t.Fatalf("Dot: got %v want 25", got)
	}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm: got %v want 5", got)
	}
	if got := v.Norm2(); got != 25 {
		t.Fatalf("Norm2: got %v want 25", got)
	}
}

func TestVectorStats(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	if got := v.Mean(); got != 2.5 {
		t.Fatalf("Mean: got %v", got)
	}
	if got := v.Variance(); got != 1.25 {
		t.Fatalf("Variance: got %v", got)
	}
	if got := v.Max(); got != 4 {
		t.Fatalf("Max: got %v", got)
	}
	if got := v.Min(); got != 1 {
		t.Fatalf("Min: got %v", got)
	}
	if got := v.ArgMax(); got != 3 {
		t.Fatalf("ArgMax: got %v", got)
	}
	var empty Vector
	if empty.Mean() != 0 || empty.Variance() != 0 {
		t.Fatal("empty vector stats should be 0")
	}
}

func TestVectorArgMaxTieBreak(t *testing.T) {
	v := Vector{7, 3, 7}
	if got := v.ArgMax(); got != 0 {
		t.Fatalf("ArgMax tie: got %d want 0", got)
	}
}

func TestVectorLerp(t *testing.T) {
	v := Vector{0, 0}
	v.Lerp(0.25, Vector{4, 8})
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("Lerp: got %v", v)
	}
}

func TestVectorAllFinite(t *testing.T) {
	if !(Vector{1, 2}).AllFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).AllFinite() {
		t.Fatal("NaN not detected")
	}
	if (Vector{math.Inf(1)}).AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestAverage(t *testing.T) {
	dst := NewVector(2)
	Average(dst, []Vector{{1, 2}, {3, 4}, {5, 6}})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Average: got %v", dst)
	}
}

// TestAccumulateSplitsAverage: a running sum folded part by part — zero,
// Accumulate each part of vs in order, scale by 1/len(vs) — is Average bit
// for bit, for every way of cutting vs, on the assembly kernels and on the
// pure-Go ones. Negative zeros are in the inputs because the sum starts from
// +0 either way.
func TestAccumulateSplitsAverage(t *testing.T) {
	rng := NewRNG(41)
	check := func(path string) {
		for _, n := range []int{1, 7, combineBlock + 129} {
			for nsrc := 1; nsrc <= 9; nsrc++ {
				vs := make([]Vector, nsrc)
				for i := range vs {
					vs[i] = randVec(rng, n)
					vs[i][0] = math.Copysign(0, -1)
				}
				want := NewVector(n)
				Average(want, vs)
				got := NewVector(n)
				// Bit i of cuts set: a part ends after source i.
				for cuts := 0; cuts < 1<<(nsrc-1); cuts++ {
					got.Fill(math.NaN())
					got.Zero()
					start := 0
					for i := range vs {
						if i == nsrc-1 || cuts&(1<<i) != 0 {
							Accumulate(got, vs[start:i+1])
							start = i + 1
						}
					}
					got.Scale(1 / float64(nsrc))
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s: n=%d, %d sources, cuts %b: element %d = %v, Average %v", path, n, nsrc, cuts, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
	check("default kernels")
	if restore := ForcePortable(); restore != nil {
		defer restore()
		check("pure-Go kernels")
	}
}

func TestWeightedAverage(t *testing.T) {
	dst := NewVector(1)
	WeightedAverage(dst, []Vector{{2}, {10}}, []float64{3, 1})
	if dst[0] != 4 {
		t.Fatalf("WeightedAverage: got %v want 4", dst[0])
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	(Vector{1}).Add(Vector{1, 2})
}

// Property: dot product is symmetric and Cauchy–Schwarz holds.
func TestQuickDotProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, u := sanitize(a[:n]), sanitize(b[:n])
		d1, d2 := v.Dot(u), u.Dot(v)
		if !almostEqual(d1, d2, 1e-9) {
			return false
		}
		return math.Abs(d1) <= v.Norm()*u.Norm()*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: averaging identical vectors is the identity.
func TestQuickAverageIdentity(t *testing.T) {
	f := func(a []float64, k uint8) bool {
		v := sanitize(a)
		if len(v) == 0 {
			return true
		}
		n := int(k%5) + 1
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = v
		}
		dst := NewVector(len(v))
		Average(dst, vs)
		for i := range v {
			if !almostEqual(dst[i], v[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Axpy then Axpy with the negated coefficient round-trips.
func TestQuickAxpyRoundTrip(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, u := sanitize(a[:n]), sanitize(b[:n])
		orig := v.Clone()
		v.Axpy(0.37, u)
		v.Axpy(-0.37, u)
		for i := range v {
			if !almostEqual(v[i], orig[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitize clamps quick-generated values into a well-conditioned range so
// floating-point edge cases (Inf, NaN, 1e300) don't spuriously fail
// algebraic identities.
func sanitize(a []float64) Vector {
	v := make(Vector, len(a))
	for i, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1e3)
	}
	return v
}

// TestCopyAll covers the broadcast kernel across block boundaries and
// destination counts (the serial path fans L1 blocks out to every dst).
func TestCopyAll(t *testing.T) {
	rng := NewRNG(21)
	for _, n := range []int{0, 1, 7, combineBlock - 1, combineBlock, combineBlock + 3, 3*combineBlock + 17} {
		for _, k := range []int{0, 1, 3, 8} {
			src := randVec(rng, n)
			dsts := make([]Vector, k)
			for i := range dsts {
				dsts[i] = randVec(rng, n)
			}
			CopyAll(dsts, src)
			for i, d := range dsts {
				for j := range d {
					if d[j] != src[j] {
						t.Fatalf("n=%d dst %d elem %d: got %g want %g", n, i, j, d[j], src[j])
					}
				}
			}
		}
	}
}

// TestCopyAllLengthMismatchPanics pins the contract.
func TestCopyAllLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CopyAll([]Vector{NewVector(3)}, NewVector(4))
}
