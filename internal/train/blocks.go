package train

import (
	"math"
	"sort"

	"selsync/internal/cluster"
	"selsync/internal/nn"
)

// A worker's gradient, block by block. Layers write their gradients (they do
// not add to a cleared arena), and the backward pass reports each top-level
// layer as it finishes (nn.GradScheduler). On a step whose policy declared
// Observe or LocalFirst, each worker does that work on a block as soon as
// the block is final, while it is still in cache: the squared norm of every
// parameter in it for the Δ(g_i) tracker, and its own optimizer update over
// it. One function, block, does the work at every granularity: per layer
// under the hook, once over whatever the hook did not release after the
// backward pass (the whole arena for a network without the hook), and once
// over the whole arena in the undeclared order's separate tracker and update
// dispatches. The tracker is fed after the backward pass, from the per-
// parameter norms summed in parameter order — nn.GradNorm2's sum — and the
// range updates (opt.Optimizer.StepRange) tile the arena into Step's bits,
// so the split moves work, never results.

// blockWork is what a dispatch does with each finished block of a worker's
// gradient: take its norm for the tracker, apply the worker's own update to
// it, or both.
type blockWork struct{ observe, apply bool }

// workerBlocks is one worker's progress through its gradient blocks.
type workerBlocks struct {
	// final is the lowest arena offset whose gradient the step's backward
	// pass has reported final: Dim until the first report, 0 once a network
	// with the hook has finished. Written only on the goroutine that runs the
	// worker's backward pass; read after that dispatch has returned.
	final int
	// norm2[i] is parameter i's squared gradient norm, filled as its block
	// is observed.
	norm2 []float64
}

// initBlocks sizes the per-worker block state for every worker id and wires
// every replica the cluster hosts, now and after any rebuild.
func (r *runner) initBlocks() {
	ps := r.cl.Workers[0].Model.Params()
	r.paramOffs = make([]int, len(ps)+1)
	for i, p := range ps {
		r.paramOffs[i+1] = r.paramOffs[i] + len(p.Data)
	}
	r.blocks = make([]workerBlocks, r.cfg.Workers)
	for id := range r.blocks {
		r.blocks[id].norm2 = make([]float64, len(ps))
	}
	r.wholeFn = func(w *cluster.Worker) { r.finishBlocks(w, r.cl.Dim()) }
	r.cl.SetWorkerSetup(r.installBlocks)
}

// installBlocks wires one replica: the backward-pass hook that hands each
// finished layer's block to block.
func (r *runner) installBlocks(w *cluster.Worker) {
	b := &r.blocks[w.ID]
	if gs, ok := w.Model.(nn.GradScheduler); ok {
		gs.SetGradHook(func(low int) {
			r.block(w, low, b.final)
			b.final = low
		})
	}
}

// block does the dispatch's work on worker w's gradient block [lo, hi),
// which starts and ends on parameter boundaries and which no layer writes
// again this step.
func (r *runner) block(w *cluster.Worker, lo, hi int) {
	if lo >= hi {
		return
	}
	b := &r.blocks[w.ID]
	if r.work.observe {
		ps := w.Model.Params()
		for i := sort.SearchInts(r.paramOffs, lo); r.paramOffs[i] < hi; i++ {
			b.norm2[i] = ps[i].Grad.Norm2()
		}
	}
	if r.work.apply {
		w.Optimizer.StepRange(r.lrNow, lo, hi)
	}
}

// finishBlocks ends worker w's part of a dispatch: block's work on [0, hi),
// the part of the arena no hook released, then the tracker's observation of
// the whole gradient's norm.
func (r *runner) finishBlocks(w *cluster.Worker, hi int) {
	r.block(w, 0, hi)
	if r.work.observe {
		var s float64
		for _, n2 := range r.blocks[w.ID].norm2 {
			s += n2
		}
		w.Tracker.ObserveGradNorm(math.Sqrt(s))
	}
}
