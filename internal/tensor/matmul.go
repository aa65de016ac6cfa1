package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the estimated work of one kernel call, in cache-hot
// multiply-adds, below which it runs on the calling goroutine alone. Waking
// a parked helper goroutine onto an idle core takes tens of microseconds
// (20 µs added per call on the 2-core reference VM, where a multiply-add
// costs 0.08 ns), so a call has to be worth a few hundred µs before fanning
// out stops losing. The wake is also an OS-thread wake-up whenever a
// processor is idle, and each one is a chance for the kernel's scheduler to
// put two of the process's threads on one core, so a training step should
// not issue one per layer call: the value keeps every GEMM of a width-128
// model at batch 16 inline (the largest, a 16×1024×128 input projection, is
// 1<<21), and Average/CopyAll of its 213k-parameter vector over four
// workers (3.4M); evaluation batches and wider models fan out.
const parallelThreshold = 1 << 22

// streamCost is the work estimate of one element moved by the flat-vector
// kernels (Average, CopyAll) in parallelThreshold's units: they stream
// operands from L2 or beyond, about four times a cache-hot multiply-add.
const streamCost = 4

// The three MatMul variants share a pair of register-blocked micro-kernels:
// axpy4 (dst += a0·u0 + a1·u1 + a2·u2 + a3·u3) amortizes the load/store of
// the destination row over four source rows, and dot4 computes four
// independent dot products in one pass over the shared operand. Both break
// the single-accumulator dependency chain of the naive loops, which is what
// bounds throughput on the scalar float64 pipeline.

// axpy4 computes dst += a0*u0 + a1*u1 + a2*u2 + a3*u3 element-wise. All
// slices must have len(dst) elements.
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
		dst[j] += a0*u0[j] + a1*u1[j] + a2*u2[j] + a3*u3[j]
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
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Cols); t != nil {
		t.kern, t.dst, t.a, t.b = kernMatMul, dst, a, b
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	matMulRange(dst, a, b, 0, dst.Rows)
}

// matMulRange computes output rows [lo, hi) of dst = a × b. The i-k-j loop
// order streams through b row-wise, which is cache-friendly for row-major
// storage; the k dimension is blocked by four so each pass over the output
// row carries four fused multiply-adds.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := dst.Row(i)
		out.Zero()
		arow := a.Row(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			axpy4(out,
				arow[k], b.Row(k),
				arow[k+1], b.Row(k+1),
				arow[k+2], b.Row(k+2),
				arow[k+3], b.Row(k+3))
		}
		for ; k < len(arow); k++ {
			if av := arow[k]; av != 0 {
				out.Axpy(av, b.Row(k))
			}
		}
	}
}

// MatMulATB computes dst = aᵀ × b without materializing the transpose.
// Shapes: a is (n × p), b is (n × q), dst is (p × q).
func MatMulATB(dst, a, b *Matrix) {
	dst.Zero()
	MatMulATBAcc(dst, a, b)
}

// MatMulATBAcc computes dst += aᵀ × b: the accumulating form layers use to
// fold weight gradients straight into the Param.Grad accumulators without a
// private scratch matrix and the extra zero+add passes it would cost.
//
// Large products are partitioned by dst row, never along the shared n
// dimension: dst row i receives a[n][i]·b[n] for n ascending whichever
// goroutine owns it, so there is no cross-goroutine sum and the result is
// the serial loop's bit for bit at any GOMAXPROCS. The call allocates
// nothing on either path.
func MatMulATBAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATB shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Rows); t != nil {
		t.kern, t.dst, t.a, t.b = kernMatMulATB, dst, a, b
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	accumulateATB(dst, a, b, 0, dst.Rows)
}

// accumulateATB adds aᵀ×b into dst rows [lo, hi). The shared n dimension is
// walked in full and blocked by four: each pass over a dst row fuses the
// contributions of four samples, amortizing the dst load/store.
func accumulateATB(dst, a, b *Matrix, lo, hi int) {
	n := 0
	for ; n+4 <= a.Rows; n += 4 {
		a0, a1, a2, a3 := a.Row(n), a.Row(n+1), a.Row(n+2), a.Row(n+3)
		b0, b1, b2, b3 := b.Row(n), b.Row(n+1), b.Row(n+2), b.Row(n+3)
		for i := lo; i < hi; i++ {
			axpy4(dst.Row(i), a0[i], b0, a1[i], b1, a2[i], b2, a3[i], b3)
		}
	}
	for ; n < a.Rows; n++ {
		arow := a.Row(n)
		brow := b.Row(n)
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				dst.Row(i).Axpy(av, brow)
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
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABT shape mismatch")
	}
	if t := fanFor(dst.Rows, dst.Rows*dst.Cols*a.Cols); t != nil {
		t.kern, t.dst, t.a, t.b, t.acc = kernMatMulABT, dst, a, b, acc
		t.fan(dst.Rows, t.rowGrain(dst.Rows))
		return
	}
	matMulABTRange(dst, a, b, 0, dst.Rows, acc)
}

// matMulABTRange computes output rows [lo, hi) of dst = a × bᵀ, four dot
// products per pass over the shared a row.
func matMulABTRange(dst, a, b *Matrix, lo, hi int, acc bool) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		out := dst.Row(i)
		j := 0
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
// destination (matrix rows, or blocks of a flat vector) and runs the serial
// range kernel on each part, so the partition cannot change a single bit of
// the result. That leaves the fan-out free to be opportunistic: the caller
// publishes the call as a fanTask, offers it to helper goroutines that are
// parked idle right now, and claims chunks itself alongside them until none
// are left. When no helper is idle, or the cores are busy with other callers
// (cluster.Each's replicas) so that a woken helper never gets to run, the
// caller simply ends up computing every chunk inline.

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
)

// fanTask is one fanned-out kernel call: the operands, and the chunk
// cursor the caller and its helpers claim from.
type fanTask struct {
	kern      rangeKernel
	dst, a, b *Matrix // matrix kernels
	acc       bool    // kernMatMulABT: accumulate into dst
	vec       Vector  // kernCombine: dst; kernCopyAll: src
	vs        []Vector
	w         []float64
	scale     float64

	procs, n, grain int
	next            atomic.Int64   // start of the next unclaimed chunk of [0, n)
	helpers         sync.WaitGroup // helpers that accepted the task and have not left it
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

// rowGrain is the chunk size for a matrix kernel over rows output rows:
// about four chunks per processor, so a goroutine that starts late or loses
// its core still leaves the others something to take.
func (t *fanTask) rowGrain(rows int) int {
	return (rows + 4*t.procs - 1) / (4 * t.procs)
}

// blockGrain is the chunk size for a flat-vector kernel over n elements:
// whole combineBlocks, about four chunks per processor like rowGrain. The
// range kernels walk a chunk block by block, so a chunk is a contiguous run
// of the L1-sized blocks the serial walk makes.
func (t *fanTask) blockGrain(n int) int {
	blocks := (n + combineBlock - 1) / combineBlock
	return t.rowGrain(blocks) * combineBlock
}

// fan runs the task's kernel over [0, n) in grain-sized chunks, on the
// calling goroutine and on whichever helpers are idle, returns when every
// chunk is done and recycles the task.
func (t *fanTask) fan(n, grain int) {
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
	t.dst, t.a, t.b, t.vec, t.vs, t.w = nil, nil, nil, nil, nil, nil
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
			accumulateATB(t.dst, t.a, t.b, lo, hi)
		case kernMatMulABT:
			matMulABTRange(t.dst, t.a, t.b, lo, hi, t.acc)
		case kernCombine:
			combineRange(t.vec, t.vs, t.w, t.scale, lo, hi)
		case kernCopyAll:
			copyAllRange(t.vs, t.vec, lo, hi)
		}
	}
}
