package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// RNG is a deterministic SplitMix64 pseudo-random generator. Every worker,
// dataset and initializer in the repository owns its own RNG seeded from a
// run-level seed, which keeps multi-goroutine training runs bit-for-bit
// reproducible without sharing (and locking) a global source.
type RNG struct {
	state uint64
}

// gamma is SplitMix64's increment: every draw adds it to the state word.
const gamma = 0x9e3779b97f4a7c15

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

// Advance moves the generator n draws ahead in O(1): the state word is a
// counter that every draw steps by gamma, so after r.Advance(n) r is where n
// calls of Uint64 would have left it.
func (r *RNG) Advance(n uint64) { r.state += n * gamma }

// Uint64 returns the next raw 64-bit value (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is SplitMix64's output function: the value drawn at state word z.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps a raw draw to Float64's uniform value.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

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
	return boxMuller(u1, r.Float64())
}

// boxMuller is Norm's transform of its two uniforms.
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// normChunk is how many samples a Gaussian fill draws uniforms for before
// handing them to the transform.
const normChunk = 256

// normCost is the work estimate of one Gaussian sample in
// parallelThreshold's units: two SplitMix64 draws and boxMuller4's log,
// cosine, division and square root take 8–10 ns on the 2-core reference
// VM, about 200 tiled multiply-adds. A fill fans out from about 21 000
// samples; a 128×128 weight matrix is drawn inline.
const normCost = 200

// NormVector fills dst with independent N(mu, sigma²) samples: element i
// is mu + sigma*Norm() of the i-th call, and r ends where those calls leave
// it. With AVX2 the uniforms are drawn a chunk at a time (same stream
// positions) and the transform runs four lanes at a time in boxMuller4, bit
// for bit the scalar math. A long fill is shared with idle helper
// goroutines (see normFill), with the same values at any GOMAXPROCS.
func (r *RNG) NormVector(dst Vector, mu, sigma float64) {
	r.fill(normFill{dst: dst, cols: len(dst), mu: mu, sigma: sigma})
}

// NormRows fills m with N(mu, sigma²) samples a row at a time: the i-th
// block of m.Cols samples of the stream lands in row order[i] (row i when
// order is nil) and, when add is non-empty, add[i % len(add)] is added to it
// element by element. The values and the state r ends in are those of
//
//	for i := range m.Rows {
//		row := m.Row(order[i])
//		r.NormVector(row, mu, sigma)
//		row.Add(add[i%len(add)])
//	}
//
// without the per-row calls, and shared with idle helper goroutines like
// NormVector. It panics if order's length is not m.Rows or an add vector's
// length is not m.Cols.
func (r *RNG) NormRows(m *Matrix, order []int, add []Vector, mu, sigma float64) {
	if order != nil && len(order) != m.Rows {
		panic(fmt.Sprintf("tensor: NormRows order has %d entries for %d rows", len(order), m.Rows))
	}
	for _, a := range add {
		assertSameLen(len(a), m.Cols, "NormRows")
	}
	r.fill(normFill{dst: m.Data, cols: m.Cols, order: order, add: add, mu: mu, sigma: sigma})
}

// normFill is one Gaussian fill. Stream element k — the k-th
// mu + sigma·Norm() of the serial loop — lands in column k % cols of block
// b = k / cols, which is row order[b] of dst (row b when order is nil), plus
// add[b % len(add)] at that column when add is set.
//
// Without a redraw element k takes draws 2k+1 and 2k+2 of the stream, so a
// chunk of elements can start from the state Advance(2·lo) reaches and be
// drawn by any goroutine. The exception is Norm's u1 == 0 redraw (a 2⁻⁵³
// event per sample), which shifts every later element by one draw: a chunk
// that meets one stops there and reports the element, and the fill redraws
// everything from the lowest such element on serially, from its true state.
// The values and the generator's final state are the serial loop's at any
// chunking.
type normFill struct {
	dst       Vector
	cols      int
	order     []int
	add       []Vector
	mu, sigma float64
	start     uint64 // the generator's state before element 0
}

// fill runs f from r's state and leaves r where the serial loop would.
func (r *RNG) fill(f normFill) {
	n := len(f.dst)
	if n == 0 {
		return
	}
	f.start = r.state
	t := fanFor(n, normCost*n)
	if t == nil {
		f.draw(r, 0, n, true)
		return
	}
	t.kern, t.norm = kernNorm, f
	t.stop.Store(int64(n))
	t.run(n, (t.chunk(n)+normChunk-1)&^(normChunk-1))
	k := int(t.stop.Load())
	t.release()
	f.finish(r, k)
}

// chunk draws elements [lo, hi) from their jumped-to state. At a redraw it
// stops and lowers stop to the element's index.
func (f *normFill) chunk(lo, hi int, stop *atomic.Int64) {
	g := RNG{state: f.start}
	g.Advance(2 * uint64(lo))
	k := f.draw(&g, lo, hi, false)
	if k == hi {
		return
	}
	for cur := stop.Load(); int64(k) < cur && !stop.CompareAndSwap(cur, int64(k)); cur = stop.Load() {
	}
}

// finish completes a chunked fill whose chunks drew every element below k
// correctly (k = len(dst) when no chunk met a redraw): it redraws the rest
// serially from element k's state and leaves r at the fill's end.
func (f *normFill) finish(r *RNG, k int) {
	r.state = f.start
	r.Advance(2 * uint64(k))
	f.draw(r, k, len(f.dst), true)
}

// draw computes elements [lo, hi) from g, the state before element lo, and
// leaves g after the last draw it made. With redraw set it redraws a u1 of
// 0 as Norm does and returns hi; without, it stops before such an element
// and returns its index.
func (f *normFill) draw(g *RNG, lo, hi int, redraw bool) int {
	var u1, u2, z [normChunk]float64
	s := g.state                                // a local word stays in a register
	direct := f.order == nil && len(f.add) == 0 // element k is dst[k]
	for k := lo; k < hi; {
		m, stop, i := min(normChunk, hi-k), false, 0
		if haveFMA {
			i = uniformPairs4(&u1[0], &u2[0], m&^3, s) // up to the first u1 of 0
			s += 2 * uint64(i) * gamma
		}
		for ; i < m; i++ {
			s += gamma // Norm's draws, in Norm's order
			u := unit(mix(s))
			if u == 0 {
				if !redraw {
					m, stop = i, true
					break
				}
				for u == 0 {
					s += gamma
					u = unit(mix(s))
				}
			}
			s += gamma
			u1[i], u2[i] = u, unit(mix(s))
		}
		out := z[:m]
		if direct {
			out = f.dst[k : k+m]
		}
		done := 0
		if haveFMA && m >= 4 {
			done = m &^ 3
			boxMuller4(&out[0], &u1[0], &u2[0], done, f.mu, f.sigma)
		}
		for i := done; i < m; i++ {
			out[i] = f.mu + f.sigma*boxMuller(u1[i], u2[i])
		}
		if !direct {
			f.store(k, out)
		}
		k += m
		if stop {
			g.state = s
			return k
		}
	}
	g.state = s
	return hi
}

// store writes the samples of elements k, k+1, … to their places in dst.
func (f *normFill) store(k int, v []float64) {
	for len(v) > 0 {
		b, j := k/f.cols, k%f.cols
		seg := min(len(v), f.cols-j)
		row := b
		if f.order != nil {
			row = f.order[b]
		}
		dst := f.dst[row*f.cols+j:][:seg]
		if len(f.add) > 0 {
			add := f.add[b%len(f.add)][j:][:seg]
			for i := range dst {
				dst[i] = v[i] + add[i]
			}
		} else {
			copy(dst, v[:seg])
		}
		v, k = v[seg:], k+seg
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
