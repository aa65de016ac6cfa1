package tensor

import (
	"math"
	"testing"
)

// sameFloat reports whether a and b have the same bits, or are both NaN
// (a NaN's payload depends on operand order, which the contract does not
// fix).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkNormVector holds NormVector to the scalar loop it replaces — element
// i is mu + sigma*Norm() of the i-th call — on the current kernel path,
// bits and RNG state after the call included.
func checkNormVector(t *testing.T, seed uint64, n int, mu, sigma float64) {
	t.Helper()
	got, ref := NewRNG(seed), NewRNG(seed)
	v := NewVector(n)
	got.NormVector(v, mu, sigma)
	for i, x := range v {
		if want := mu + sigma*ref.Norm(); !sameFloat(x, want) {
			t.Fatalf("seed %d n %d mu %g sigma %g: element %d = %v (%#x), scalar loop %v (%#x)",
				seed, n, mu, sigma, i, x, math.Float64bits(x), want, math.Float64bits(want))
		}
	}
	if got.State() != ref.State() {
		t.Fatalf("seed %d n %d: RNG state %#x after NormVector, scalar loop leaves %#x", seed, n, got.State(), ref.State())
	}
}

// FuzzNormVector: NormVector equals the scalar Box–Muller loop bit for bit
// for any seed, length, mean and deviation, on the kernel path and on the
// portable one, and leaves the RNG where the loop leaves it.
func FuzzNormVector(f *testing.F) {
	f.Add(uint64(0), uint16(0), 0.0, 1.0)
	f.Add(uint64(1), uint16(3), 0.0, 1.0)
	f.Add(uint64(42), uint16(257), -1.5, 0.01)
	f.Add(uint64(7), uint16(1031), 3.0, math.Sqrt(2.0/128))
	f.Add(uint64(1<<63), uint16(1024), 0.0, -2.0)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, mu, sigma float64) {
		checkNormVector(t, seed, int(n)%1032, mu, sigma)
		if restore := ForcePortable(); restore != nil {
			defer restore()
			checkNormVector(t, seed, int(n)%1032, mu, sigma)
		}
	})
}

// TestNormVectorLongStreams runs whole chunks and ragged tails over many
// seeds: the stream positions of the chunked uniform draw must be the
// scalar loop's.
func TestNormVectorLongStreams(t *testing.T) {
	lengths := []int{1, 2, 3, 4, 5, normChunk - 1, normChunk, normChunk + 1, normChunk + 4, 3*normChunk + 3, 100_003}
	for seed := uint64(0); seed < 16; seed++ {
		for _, n := range lengths {
			checkNormVector(t, seed, n, 0, 1)
		}
	}
}

// TestBoxMuller4EdgeCases feeds the kernel the inputs where the scalar
// math branches: log's f1 == √2/2 comparison, the smallest u1 the RNG can
// return, and u2 on (and one ulp either side of) every octant boundary of
// x·4/π, where cos switches between its sine and cosine polynomials and
// flips its sign.
func TestBoxMuller4EdgeCases(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2 on this machine: NormVector runs the scalar loop only")
	}
	scalar := func(u1, u2 float64) float64 { return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2) }
	check := func(name string, u1s, u2s []float64) {
		t.Run(name, func(t *testing.T) {
			// Pad both to one length, a multiple of the kernel's 4 lanes.
			n := (max(len(u1s), len(u2s)) + 3) &^ 3
			for len(u1s) < n {
				u1s = append(u1s, 0.5)
			}
			for len(u2s) < n {
				u2s = append(u2s, 0.25)
			}
			dst := NewVector(len(u1s))
			boxMuller4(&dst[0], &u1s[0], &u2s[0], len(dst), 0, 1)
			for i, got := range dst {
				if want := scalar(u1s[i], u2s[i]); !sameFloat(got, want) {
					t.Errorf("u1 %v (%#x) u2 %v (%#x): kernel %v, scalar %v",
						u1s[i], math.Float64bits(u1s[i]), u2s[i], math.Float64bits(u2s[i]), got, want)
				}
			}
		})
	}

	// f1 == √2/2 exactly: u1 = √2/2 · 2^-e, every exponent down to 2^-53.
	var half []float64
	for e := 0; e <= 52; e++ {
		half = append(half, math.Ldexp(7.07106781186547524401e-01, -e))
	}
	check("f1-equals-half-sqrt2", half, nil)

	check("smallest-u1", []float64{0x1p-53, 0x1p-52, 3 * 0x1p-53, 1 - 0x1p-53}, nil)

	// u2 = k/8 puts x·4/π on octant k; neighbours one ulp (2^-53, the RNG's
	// grid) either side straddle it.
	var octant []float64
	for k := 0; k <= 8; k++ {
		b := float64(k) / 8
		for d := -2; d <= 2; d++ {
			if u := b + float64(d)*0x1p-53; u >= 0 && u < 1 {
				octant = append(octant, u)
			}
		}
	}
	u1s := make([]float64, len(octant))
	for i := range u1s {
		u1s[i] = 0.3
	}
	check("u2-octant-boundaries", u1s, octant)
}
