package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. Every worker,
// dataset and initializer in the repository owns its own RNG seeded from a
// run-level seed, which keeps multi-goroutine training runs bit-for-bit
// reproducible without sharing (and locking) a global source.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's current internal state word. Together with
// SetState it lets checkpointing code freeze and resume a stream exactly:
// a generator restored with SetState(State()) produces the same sequence
// the original would have produced.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state word.
func (r *RNG) SetState(s uint64) { r.state = s }

// Split derives an independent child generator; the i-th Split of a given
// RNG is stable across runs.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next raw 64-bit value (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller; one value per call,
// the cosine branch).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// normChunk is how many samples NormVector's vector path draws uniforms
// for before handing them to the kernel.
const normChunk = 256

// NormVector fills dst with independent N(mu, sigma²) samples: element i
// is mu + sigma*Norm() of the i-th call. With AVX2 the uniforms are drawn
// a chunk at a time (same stream positions) and the transform runs four
// lanes at a time in boxMuller4, bit for bit the scalar math; a length
// that is not a multiple of four finishes on the scalar loop.
func (r *RNG) NormVector(dst Vector, mu, sigma float64) {
	done := 0
	if haveFMA {
		var u1, u2 [normChunk]float64
		g := *r // a local copy keeps the state word in a register
		for n := len(dst) &^ 3; done < n; {
			m := min(normChunk, n-done)
			for i := range m {
				u := g.Float64() // Norm's draws, in Norm's order
				for u == 0 {
					u = g.Float64()
				}
				u1[i], u2[i] = u, g.Float64()
			}
			boxMuller4(&dst[done], &u1[0], &u2[0], m, mu, sigma)
			done += m
		}
		*r = g
	}
	for i := done; i < len(dst); i++ {
		dst[i] = mu + sigma*r.Norm()
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place (Fisher–Yates).
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("tensor: Sample k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}

// LogNorm returns a log-normal sample with the given log-space mean and
// standard deviation; the device jitter model uses this for compute-time
// noise.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}
