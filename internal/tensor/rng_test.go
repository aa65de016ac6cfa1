package tensor

import (
	"math"
	"sync/atomic"
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
// bits and RNG state after the call included. With grain > 0 it holds the
// fill cut into grain-element chunks (chunkedFill) to the same loop.
func checkNormVector(t *testing.T, seed uint64, n, grain int, mu, sigma float64) {
	t.Helper()
	got, ref := NewRNG(seed), NewRNG(seed)
	v := NewVector(n)
	how := "NormVector"
	if grain > 0 && n > 0 {
		how = "chunked fill"
		chunkedFill(got, normFill{dst: v, cols: n, mu: mu, sigma: sigma}, grain)
	} else {
		got.NormVector(v, mu, sigma)
	}
	for i, x := range v {
		if want := mu + sigma*ref.Norm(); !sameFloat(x, want) {
			t.Fatalf("%s seed %#x n %d grain %d mu %g sigma %g: element %d = %v (%#x), scalar loop %v (%#x)",
				how, seed, n, grain, mu, sigma, i, x, math.Float64bits(x), want, math.Float64bits(want))
		}
	}
	if got.State() != ref.State() {
		t.Fatalf("%s seed %#x n %d grain %d: RNG state %#x after the fill, scalar loop leaves %#x",
			how, seed, n, grain, got.State(), ref.State())
	}
}

// chunkedFill runs f as a fanned-out fill does, cut into grain-element
// chunks, but on the calling goroutine and from the last chunk to the
// first: a chunk's values cannot depend on which chunks ran before it.
func chunkedFill(r *RNG, f normFill, grain int) {
	n := len(f.dst)
	f.start = r.State()
	var stop atomic.Int64
	stop.Store(int64(n))
	for lo := (n - 1) / grain * grain; lo >= 0; lo -= grain {
		f.chunk(lo, min(lo+grain, n), &stop)
	}
	f.finish(r, int(stop.Load()))
}

// plantedSeed is the seed whose k-th draw is exactly 0: the state word
// reaches 0 there and SplitMix64 maps 0 to 0. An odd k is a u1 draw — the
// redraw — when no earlier draw was one.
func plantedSeed(k uint64) uint64 { return -(k * gamma) }

// FuzzNormVector: NormVector equals the scalar Box–Muller loop bit for bit
// for any seed, length, mean and deviation, on the kernel path and on the
// portable one, and leaves the RNG where the loop leaves it; so does the
// fill cut into chunks of any size, redraws included.
func FuzzNormVector(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint16(0), 0.0, 1.0)
	f.Add(uint64(1), uint16(3), uint16(1), 0.0, 1.0)
	f.Add(uint64(42), uint16(257), uint16(64), -1.5, 0.01)
	f.Add(uint64(7), uint16(1031), uint16(256), 3.0, math.Sqrt(2.0/128))
	f.Add(uint64(1<<63), uint16(1024), uint16(1000), 0.0, -2.0)
	f.Add(plantedSeed(1), uint16(17), uint16(5), 0.0, 1.0)      // redraw at element 0
	f.Add(plantedSeed(401), uint16(1031), uint16(97), 0.5, 2.0) // at element 200, mid-chunk
	f.Add(plantedSeed(2061), uint16(1031), uint16(3), 0.0, 1.0) // at element 1030, the last
	f.Add(plantedSeed(20), uint16(300), uint16(7), 0.0, 1.0)    // a u2 of 0: no redraw
	f.Fuzz(func(t *testing.T, seed uint64, n, grain uint16, mu, sigma float64) {
		size := int(n) % 1032
		checkNormVector(t, seed, size, 0, mu, sigma)
		checkNormVector(t, seed, size, 1+int(grain)%(size+1), mu, sigma)
		if restore := ForcePortable(); restore != nil {
			defer restore()
			checkNormVector(t, seed, size, 0, mu, sigma)
			checkNormVector(t, seed, size, 1+int(grain)%(size+1), mu, sigma)
		}
	})
}

// TestUniformPairs4 holds the AVX2 SplitMix64 kernel to Norm's two Go
// draws per sample, and to the first zero u1 it must stop at: planted at
// every lane of a group, in the first and a later group, and nowhere.
func TestUniformPairs4(t *testing.T) {
	if !haveFMA {
		t.Skip("no AVX2 on this machine: the draws run in Go only")
	}
	const n = 64
	seeds := []uint64{0, 1, 42, 1 << 63, ^uint64(0)}
	for e := range 12 {
		seeds = append(seeds, plantedSeed(uint64(2*e+1)), plantedSeed(uint64(2*e+2)))
	}
	seeds = append(seeds, plantedSeed(2*41+1))
	for _, seed := range seeds {
		var u1, u2 [n]float64
		got := uniformPairs4(&u1[0], &u2[0], n, seed)
		r := NewRNG(seed)
		want := n
		for i := range n {
			a, b := r.Float64(), r.Float64()
			if a == 0 {
				want = i
				break
			}
			if u1[i] != a || u2[i] != b {
				t.Fatalf("seed %#x pair %d: kernel (%v, %v), Go (%v, %v)", seed, i, u1[i], u2[i], a, b)
			}
		}
		if got != want {
			t.Fatalf("seed %#x: kernel stopped at %d, first zero u1 at %d", seed, got, want)
		}
	}
}

// TestAdvance: Advance(n) leaves the generator where n draws do.
func TestAdvance(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 255, 256, 1000} {
		for _, seed := range []uint64{0, 1, 1 << 63, plantedSeed(7)} {
			jumped, walked := NewRNG(seed), NewRNG(seed)
			jumped.Advance(n)
			for range n {
				walked.Uint64()
			}
			if jumped.State() != walked.State() || jumped.Uint64() != walked.Uint64() {
				t.Fatalf("seed %#x: Advance(%d) state %#x, %d draws %#x", seed, n, jumped.State(), n, walked.State())
			}
		}
	}
}

// TestNormFillPlantedRedraw plants Norm's u1 == 0 redraw in the first, a
// middle and the last chunk of a fill and checks that the chunked fill, a
// fanned-out NormVector and NormRows each give the serial loop's values and
// end in its final state. 100 003 samples fan out at any GOMAXPROCS above 1.
func TestNormFillPlantedRedraw(t *testing.T) {
	const n = 100_003
	grain := (n + 7) / 8
	for _, e := range []int{0, 3, grain - 1, 4*grain + 17, n - 1} {
		seed := plantedSeed(uint64(2*e + 1))
		probe := NewRNG(seed)
		probe.Advance(uint64(2 * e))
		if probe.Float64() != 0 {
			t.Fatalf("seed %#x does not plant a zero u1 at element %d", seed, e)
		}
		checkNormVector(t, seed, n, grain, 0.25, 1.5)
		checkNormVector(t, seed, n, normChunk, 0, 1)
		checkNormVector(t, seed, n, 0, 0.25, 1.5)
		checkNormRows(t, seed, n/97, 97, 0, 2)
	}
}

// checkNormRows holds NormRows to the per-row loop its doc names, with a
// reversed row order and three cycling add vectors.
func checkNormRows(t *testing.T, seed uint64, rows, cols int, mu, sigma float64) {
	t.Helper()
	order := make([]int, rows)
	for i := range order {
		order[i] = rows - 1 - i
	}
	add := make([]Vector, 3)
	for i := range add {
		add[i] = NewVector(cols)
		NewRNG(uint64(i)).NormVector(add[i], 0, 1)
	}
	got, ref := NewRNG(seed), NewRNG(seed)
	m, want := NewMatrix(rows, cols), NewMatrix(rows, cols)
	got.NormRows(m, order, add, mu, sigma)
	for i := range rows {
		row := want.Row(order[i])
		for j := range row {
			row[j] = mu + sigma*ref.Norm()
		}
		row.Add(add[i%len(add)])
	}
	for i, x := range m.Data {
		if !sameFloat(x, want.Data[i]) {
			t.Fatalf("NormRows seed %#x %d×%d: element %d = %v, per-row loop %v", seed, rows, cols, i, x, want.Data[i])
		}
	}
	if got.State() != ref.State() {
		t.Fatalf("NormRows seed %#x: RNG state %#x, per-row loop leaves %#x", seed, got.State(), ref.State())
	}
}

// TestNormVectorLongStreams runs whole chunks and ragged tails over many
// seeds: the stream positions of the chunked uniform draw must be the
// scalar loop's.
func TestNormVectorLongStreams(t *testing.T) {
	lengths := []int{1, 2, 3, 4, 5, normChunk - 1, normChunk, normChunk + 1, normChunk + 4, 3*normChunk + 3, 100_003}
	for seed := uint64(0); seed < 16; seed++ {
		for _, n := range lengths {
			checkNormVector(t, seed, n, 0, 0, 1)
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
