package train

import (
	"fmt"
	"runtime"

	"selsync/internal/nn"
)

// Comm/compute overlap (Config.Overlap): DDP-style sync-as-computed. The
// flat gradient is tiled into layer-aligned buckets, and on steps whose
// policy pre-commits to gradient aggregation (Preschedulable, a Committed
// StepPlan) the engine
// starts the bucketed collective while the backward pass is still
// producing gradients. Buckets are processed in descending index order —
// the order the backward pass finalizes layers — and each hosted worker's
// block progress (workerBlocks.final, the lowest arena offset whose gradient
// is final, which the runner's nn.GradScheduler hook maintains) gates each
// bucket's launch.
//
// On a single process the compute runs first and the bucketed collective
// follows with no wait: shared memory has no transfer to overlap, and the
// sequential order keeps the arithmetic trivially identical to the mesh
// ranks', which interleave the same bucket operations with compute.

// overlapBucketBytes is the coalescing target for communication buckets:
// layer spans merge front-to-back until a bucket reaches ~256 KiB of
// float64 gradient — small enough that several buckets exist to overlap,
// large enough that per-bucket frame overhead stays negligible.
const overlapBucketBytes = 256 << 10

// initOverlap wires the overlap machinery: the bucket tiling from the
// model's layer spans, and (on a mesh) the bucket gate over the hosted
// workers' block progress.
func (e *engine) initOverlap() {
	r := e.r
	for _, w := range r.cl.Workers {
		if _, ok := w.Model.(nn.GradScheduler); !ok {
			panic(fmt.Sprintf("train: Config.Overlap requires a model implementing nn.GradScheduler; %T does not", w.Model))
		}
	}
	e.buckets = planBuckets(r.cl.Workers[0].Model.(nn.GradScheduler).LayerSpans(), r.cl.Dim(), overlapBucketBytes/8)
	if r.cl.Procs() > 1 {
		e.waitFn = e.waitBucket
	}
}

// planBuckets tiles [0, dim) with buckets cut at layer span boundaries,
// coalescing consecutive layers until a bucket holds at least targetElems
// elements; the last bucket absorbs the remainder.
func planBuckets(spans []int, dim, targetElems int) [][2]int {
	var out [][2]int
	lo := 0
	for _, s := range spans {
		if s <= lo || s >= dim {
			continue
		}
		if s-lo >= targetElems {
			out = append(out, [2]int{lo, s})
			lo = s
		}
	}
	return append(out, [2]int{lo, dim})
}

// waitBucket blocks until every hosted worker's backward pass has
// finalized bucket b — each worker's final offset must have dropped to the
// bucket's start. The hook's atomic store and this load form the
// happens-before edge that makes the collective's gradient reads race-free.
func (e *engine) waitBucket(b int) {
	lo := int64(e.buckets[b][0])
	for _, w := range e.r.cl.Workers {
		for e.r.blocks[w.ID].final.Load() > lo {
			runtime.Gosched()
		}
	}
}

// launchCompute starts the step's gradient computation. Single process:
// inline, nil join channel, and the collective runs with a nil wait. Mesh:
// block progress resets to "nothing ready" before compute departs on its
// own goroutine (so the collective never sees the last step's), and the
// caller joins on the returned channel after the collective — compute
// bookkeeping (losses, clocks) may still be running when the last bucket's
// frames have already been reduced.
func (e *engine) launchCompute() chan struct{} {
	r := e.r
	if e.waitFn == nil {
		r.computeGrads()
		return nil
	}
	dim := int64(r.cl.Dim())
	for _, w := range r.cl.Workers {
		r.blocks[w.ID].final.Store(dim)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.computeGrads()
	}()
	return done
}

// aggregateOverlapped computes the step's gradients with the bucketed
// collective overlapping the backward pass, leaving their mean in e.avg.
func (e *engine) aggregateOverlapped() error {
	done := e.launchCompute()
	err := e.r.cl.AggregateGradsOverlapped(e.avg, e.buckets, e.waitFn)
	if done != nil {
		<-done
	}
	return err
}
