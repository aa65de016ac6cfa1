package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the estimated work of one kernel call, in cache-hot
// multiply-adds, below which it runs on the calling goroutine alone. Waking
// a parked helper goroutine onto an idle core takes tens of microseconds
// (20–30 µs added per call on the 2-core reference VM, where a multiply-add
// of the tiled GEMM costs 0.05 ns), so a call has to be worth a couple of
// hundred µs before fanning out stops losing: measured there at
// GOMAXPROCS=2, a 128×128×128 product (2M, 100 µs inline) takes 10–30 µs
// longer fanned out, the 256-row evaluation batch (4M, 205 µs) breaks even
// within the noise and 512 rows finish 20–30 % sooner. The wake is also an
// OS-thread wake-up whenever a processor is idle, and each one is a chance
// for the kernel's scheduler to put two of the process's threads on one
// core, so a training step should not issue one per layer call: the value
// keeps every GEMM of a width-128 model at batch 16 inline (the largest, a
// 16×1024×128 input projection, is 1<<21), and Average/CopyAll of its
// 213k-parameter vector over four workers (3.4M); evaluation batches and
// wider models fan out.
const parallelThreshold = 1 << 22

// streamCost is the work estimate of one element moved by the flat-vector
// kernels (Average, CopyAll) in parallelThreshold's units: they stream
// operands from L2 or beyond at about 0.3 ns an element, four times what a
// multiply-add cost under the row kernels and nearer six times a tiled one.
// It stays at four: the streaming kernels did not get faster, so their
// break-even in elements is where it was.
const streamCost = 4

// Micro-kernels. With AVX2+FMA the MatMul variants run on two register
// tiles (simd_amd64.s). fmaTile4x8 keeps a 4-row × 8-column block of dst in
// eight ymm accumulators for the whole shared dimension: a step loads two
// ymm of the b row once and broadcasts four a scalars for eight FMAs (six
// loads, where the row kernel spends ten loads and two stores on eight
// FMAs), dst is touched once per block, and because a is read by (row,
// column) strides the one kernel is MatMul and MatMulATBAcc both.
// fmaDotTile2x3 computes the six dot products of two a rows with three b
// rows, every operand vector loaded once for two or three FMAs. Neither is a
// numeric path of its own: each output element receives exactly the FMA
// sequence the row kernels give it — one FMA per step of the shared
// dimension, ascending, into a single accumulator; for A·Bᵀ eight lane sums
// by k mod 8 folded in fmaDot4's order — so a result is the same bit for bit
// whichever kernel computed it, and the golden digests cannot tell.
//
// The row kernels remain where they are the only implementation: axpy4
// (dst += a0·u0, then += a1·u1, += a2·u2, += a3·u3, the destination row
// loaded and stored once per four source rows) and dot4 (four dot products
// in one pass over the shared operand) are the whole GEMM without
// AVX2+FMA, the edges of the tiled one (rows%4, the depth%4 steps with their
// zero skip; an odd row and columns%3 of A·Bᵀ), Average's fold, and the
// reference the tiles are tested against (TestTiledGEMMBitEqualRowKernels).

// axpy4 computes dst += a0*u0 + a1*u1 + a2*u2 + a3*u3 element-wise, adding
// the four terms to dst one at a time in that order — fmaAxpy4's
// association, so a sum folded four sources at a time equals one folded a
// source at a time (Accumulate's contract) on either path. All slices must
// have len(dst) elements.
func axpy4(dst Vector, a0 float64, u0 Vector, a1 float64, u1 Vector, a2 float64, u2 Vector, a3 float64, u3 Vector) {
	if haveFMA {
		fmaAxpy4(dst, u0[:len(dst)], u1[:len(dst)], u2[:len(dst)], u3[:len(dst)], a0, a1, a2, a3)
		return
	}
	u0 = u0[:len(dst)]
	u1 = u1[:len(dst)]
	u2 = u2[:len(dst)]
	u3 = u3[:len(dst)]
	for j := range dst {
		d := dst[j]
		d += a0 * u0[j]
		d += a1 * u1[j]
		d += a2 * u2[j]
		d += a3 * u3[j]
		dst[j] = d
	}
}

// dot4 returns the four dot products of a against b0..b3 in one pass over
// a. All slices must have len(a) elements.
func dot4(a, b0, b1, b2, b3 Vector) (s0, s1, s2, s3 float64) {
	if haveFMA {
		return fmaDot4(a, b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)])
	}
	b0 = b0[:len(a)]
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	b3 = b3[:len(a)]
	for j, x := range a {
		s0 += x * b0[j]
		s1 += x * b1[j]
		s2 += x * b2[j]
		s3 += x * b3[j]
	}
	return
}

// MatMul computes dst = a × b. Shapes must satisfy a.Cols == b.Rows,
// dst.Rows == a.Rows and dst.Cols == b.Cols; it panics otherwise. Large
// products are partitioned by output row (see fanTask): a row is computed by
// exactly one goroutine with the serial kernel, so the result is the serial
// loop's bit for bit at any GOMAXPROCS.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols || dst.short() || a.short() || b.short() {
		panic("tensor: MatMul shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Cols); t != nil {
		t.kern, t.dst, t.a, t.b = kernMatMul, dst, a, b
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	matMulRange(dst, a, b, 0, dst.Rows)
}

// matMulRange computes output rows [lo, hi) of dst = a × b.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	gemmRange(dst, a.Data, a.Cols, 1, a.Cols, b, lo, hi, false)
}

// MatMulATB computes dst = aᵀ × b without materializing the transpose.
// Shapes: a is (n × p), b is (n × q), dst is (p × q). It is how layers write
// a weight gradient: dst's old contents are never read, and the result is
// MatMulATBAcc's into a zeroed dst bit for bit (the tile's accumulators and
// gemmRows' rows both start from +0).
func MatMulATB(dst, a, b *Matrix) { matMulATB(dst, a, b, false) }

// MatMulATBAcc computes dst += aᵀ × b.
//
// Large products are partitioned by dst row, never along the shared n
// dimension: dst row i receives a[n][i]·b[n] for n ascending whichever
// goroutine owns it, so there is no cross-goroutine sum and the result is
// the serial loop's bit for bit at any GOMAXPROCS. The call allocates
// nothing on either path.
func MatMulATBAcc(dst, a, b *Matrix) { matMulATB(dst, a, b, true) }

func matMulATB(dst, a, b *Matrix, acc bool) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols || dst.short() || a.short() || b.short() {
		panic("tensor: MatMulATB shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Rows); t != nil {
		t.kern, t.dst, t.a, t.b, t.acc = kernMatMulATB, dst, a, b, acc
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	matMulATBRange(dst, a, b, 0, dst.Rows, acc)
}

// matMulATBRange computes dst rows [lo, hi) of aᵀ×b, added to dst under acc:
// MatMul's loop with a read down its columns.
func matMulATBRange(dst, a, b *Matrix, lo, hi int, acc bool) {
	gemmRange(dst, a.Data, 1, a.Cols, a.Rows, b, lo, hi, acc)
}

// gemmRange computes rows [lo, hi) of the product MatMul and MatMulATBAcc
// are both instances of,
//
//	dst[i][j] = (acc ? dst[i][j] : 0) + Σ_{t<depth} a[i·rsa + t·csa] · b[t][j],
//
// a being addressed by strides so that one kernel reads it row-wise or
// transposed. Whole 4-row strips go through fmaTile4x8 over the
// four-blocked part of the shared dimension; gemmRows then finishes those
// rows (the depth%4 steps) and computes the rows%4 that are left, so that
// every element sees the steps of its sum in ascending order and the result
// is gemmRows' alone, bit for bit.
func gemmRange(dst *Matrix, a Vector, rsa, csa, depth int, b *Matrix, lo, hi int, acc bool) {
	tiled, depth4 := lo, depth&^3
	if haveFMA && dst.Cols > 0 && depth4 > 0 {
		tiled = lo + (hi-lo)&^3
		for i := lo; i < tiled; i += 4 {
			fmaTile4x8(&dst.Data[i*dst.Cols], dst.Cols, &a[i*rsa], rsa, csa, &b.Data[0], b.Cols, depth4, dst.Cols, acc)
		}
		gemmRows(dst, a, rsa, csa, depth, b, lo, tiled, depth4, acc)
	}
	gemmRows(dst, a, rsa, csa, depth, b, tiled, hi, 0, acc)
}

// gemmRows is gemmRange one output row at a time, from step t0 of the
// shared dimension on (t0 a multiple of four; at 0 a row not accumulated
// into is zeroed first). Steps are blocked by four so each pass over the
// output row carries four multiply-adds; the steps past the last block skip
// exact zeros of a. It is the whole kernel without AVX2+FMA, the edges of
// the tiled one with, and the reference the tile kernel is tested against.
func gemmRows(dst *Matrix, a Vector, rsa, csa, depth int, b *Matrix, lo, hi, t0 int, acc bool) {
	for i := lo; i < hi; i++ {
		out := dst.Row(i)
		if t0 == 0 && !acc {
			out.Zero()
		}
		t, at := t0, i*rsa+t0*csa
		for ; t+4 <= depth; t, at = t+4, at+4*csa {
			axpy4(out,
				a[at], b.Row(t),
				a[at+csa], b.Row(t+1),
				a[at+2*csa], b.Row(t+2),
				a[at+3*csa], b.Row(t+3))
		}
		for ; t < depth; t, at = t+1, at+csa {
			if av := a[at]; av != 0 {
				out.Axpy(av, b.Row(t))
			}
		}
	}
}

// MatMulABT computes dst = a × bᵀ without materializing the transpose.
// Shapes: a is (n × p), b is (q × p), dst is (n × q).
func MatMulABT(dst, a, b *Matrix) {
	matMulABT(dst, a, b, false)
}

// MatMulABTAcc computes dst += a × bᵀ (see MatMulATBAcc for why the
// accumulating forms exist).
func MatMulABTAcc(dst, a, b *Matrix) {
	matMulABT(dst, a, b, true)
}

func matMulABT(dst, a, b *Matrix, acc bool) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows || dst.short() || a.short() || b.short() {
		panic("tensor: MatMulABT shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Cols); t != nil {
		t.kern, t.dst, t.a, t.b, t.acc = kernMatMulABT, dst, a, b, acc
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	matMulABTRange(dst, a, b, 0, dst.Rows, acc)
}

// matMulABTRange computes output rows [lo, hi) of dst = a × bᵀ: pairs of
// rows against triples of b rows through fmaDotTile2x3, the columns past
// the last triple and an odd last row through abtRows. Each output is one
// dot product, computed the same way by either, so the result is abtRows'
// alone, bit for bit.
func matMulABTRange(dst, a, b *Matrix, lo, hi int, acc bool) {
	tiled, cols3 := lo, b.Rows-b.Rows%3
	if haveFMA && cols3 > 0 && a.Cols > 0 {
		tiled = lo + (hi-lo)&^1
		for i := lo; i < tiled; i += 2 {
			fmaDotTile2x3(&dst.Data[i*dst.Cols], dst.Cols, &a.Data[i*a.Cols], a.Cols, &b.Data[0], b.Cols, a.Cols, cols3/3, acc)
		}
		abtRows(dst, a, b, lo, tiled, cols3, acc)
	}
	abtRows(dst, a, b, tiled, hi, 0, acc)
}

// abtRows is matMulABTRange one output row at a time over columns
// [j0, b.Rows), four dot products per pass over the shared a row: the whole
// kernel without AVX2+FMA, the edges of the tiled one with, and the
// reference the tile kernel is tested against.
func abtRows(dst, a, b *Matrix, lo, hi, j0 int, acc bool) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		out := dst.Row(i)
		j := j0
		for ; j+4 <= b.Rows; j += 4 {
			s0, s1, s2, s3 := dot4(arow,
				b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
			if acc {
				out[j] += s0
				out[j+1] += s1
				out[j+2] += s2
				out[j+3] += s3
			} else {
				out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < b.Rows; j++ {
			if acc {
				out[j] += arow.Dot(b.Row(j))
			} else {
				out[j] = arow.Dot(b.Row(j))
			}
		}
	}
}

// Fan-out. Every parallel kernel in this package partitions its
// destination (matrix rows, blocks of a flat vector, or runs of a Gaussian
// fill's stream, each drawn from its jumped-to generator state) and runs the
// serial range kernel on each part, so the partition cannot change a single
// bit of the result. That leaves the fan-out free to be opportunistic: the
// caller publishes the call as a fanTask, offers it to helper goroutines
// that are parked idle right now, and claims chunks itself alongside them
// until none are left. When no helper is idle, or the cores are busy with
// other callers (cluster.Each's replicas) so that a woken helper never gets
// to run, the caller simply ends up computing every chunk inline.

// rangeKernel selects the serial range kernel a fanTask runs. A selector
// plus plain operand fields, not a closure: a closure would be a heap
// allocation per call, which the zero-allocation training step cannot
// afford.
type rangeKernel uint8

const (
	kernMatMul rangeKernel = iota
	kernMatMulATB
	kernMatMulABT
	kernCombine
	kernCopyAll
	kernNorm
)

// fanTask is one fanned-out kernel call: the operands, and the chunk
// cursor the caller and its helpers claim from.
type fanTask struct {
	kern      rangeKernel
	dst, a, b *Matrix // matrix kernels
	acc       bool    // kernMatMulATB, kernMatMulABT: accumulate into dst
	vec       Vector  // kernCombine: dst; kernCopyAll: src
	vs        []Vector
	w         []float64
	scale     float64
	norm      normFill // kernNorm

	procs, n, grain int
	next            atomic.Int64   // start of the next unclaimed chunk of [0, n)
	helpers         sync.WaitGroup // helpers that accepted the task and have not left it
	// stop is, for kernNorm, the lowest element at which a chunk met a
	// redraw (n when none did).
	stop atomic.Int64
}

var (
	// fanWork hands tasks to helpers. Unbuffered on purpose: a non-blocking
	// send succeeds only while a helper is parked in its receive, which is
	// how a caller observes that one is idle.
	fanWork = make(chan *fanTask)
	fanMu   sync.Mutex // guards fanHelpers and fanFree
	// fanHelpers counts the helper goroutines started so far. They live as
	// long as the process, parked on fanWork when idle; there are at most
	// (largest GOMAXPROCS seen) − 1 of them.
	fanHelpers int
	fanFree    []*fanTask // recycled tasks
)

// fanFor returns a recycled task when a kernel call of the given estimated
// work over rows partitionable units is worth fanning out at the current
// GOMAXPROCS, else nil (run the range kernel inline).
func fanFor(rows, work int) *fanTask {
	if work < parallelThreshold || rows < 2 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return nil
	}
	fanMu.Lock()
	var t *fanTask
	if k := len(fanFree); k > 0 {
		t, fanFree = fanFree[k-1], fanFree[:k-1]
	}
	for ; fanHelpers < procs-1; fanHelpers++ {
		go fanHelper()
	}
	fanMu.Unlock()
	if t == nil {
		t = new(fanTask)
	}
	t.procs = procs
	return t
}

// chunk is the size that cuts n units into about four chunks per
// processor, so a goroutine that starts late or loses its core still leaves
// the others something to take.
func (t *fanTask) chunk(n int) int {
	return (n + 4*t.procs - 1) / (4 * t.procs)
}

// rowGrain is the chunk size for a matrix kernel over rows output rows:
// chunk rounded up to whole register tiles (four rows; the A·Bᵀ tile's two
// divide it), so that only the last chunk can have rows left over for the
// row-at-a-time kernel.
func (t *fanTask) rowGrain(rows int) int {
	return (t.chunk(rows) + 3) &^ 3
}

// blockGrain is the chunk size for a flat-vector kernel over n elements:
// whole combineBlocks, about four chunks per processor. The
// range kernels walk a chunk block by block, so a chunk is a contiguous run
// of the L1-sized blocks the serial walk makes.
func (t *fanTask) blockGrain(n int) int {
	blocks := (n + combineBlock - 1) / combineBlock
	return t.chunk(blocks) * combineBlock
}

// fan runs the task's kernel over [0, n) in grain-sized chunks, on the
// calling goroutine and on whichever helpers are idle, returns when every
// chunk is done and recycles the task.
func (t *fanTask) fan(n, grain int) {
	t.run(n, grain)
	t.release()
}

// run is fan without the recycling: the caller may still read the task.
func (t *fanTask) run(n, grain int) {
	t.n, t.grain = n, grain
	t.next.Store(0)
	chunks := (n + grain - 1) / grain
offer:
	for want := min(t.procs, chunks) - 1; want > 0; want-- {
		t.helpers.Add(1)
		select {
		case fanWork <- t:
		default:
			t.helpers.Done()
			break offer
		}
	}
	t.drain()
	t.helpers.Wait()
}

// release recycles a task whose run has returned.
func (t *fanTask) release() {
	t.dst, t.a, t.b, t.vec, t.vs, t.w, t.norm = nil, nil, nil, nil, nil, nil, normFill{}
	fanMu.Lock()
	fanFree = append(fanFree, t)
	fanMu.Unlock()
}

func fanHelper() {
	for t := range fanWork {
		t.drain()
		t.helpers.Done() // the caller may recycle t from here on
	}
}

// drain claims and computes chunks until none are left.
func (t *fanTask) drain() {
	for {
		hi := int(t.next.Add(int64(t.grain)))
		lo := hi - t.grain
		if lo >= t.n {
			return
		}
		hi = min(hi, t.n)
		switch t.kern {
		case kernMatMul:
			matMulRange(t.dst, t.a, t.b, lo, hi)
		case kernMatMulATB:
			matMulATBRange(t.dst, t.a, t.b, lo, hi, t.acc)
		case kernMatMulABT:
			matMulABTRange(t.dst, t.a, t.b, lo, hi, t.acc)
		case kernCombine:
			combineRange(t.vec, t.vs, t.w, t.scale, lo, hi)
		case kernCopyAll:
			copyAllRange(t.vs, t.vec, lo, hi)
		case kernNorm:
			t.norm.chunk(lo, hi, &t.stop)
		}
	}
}
