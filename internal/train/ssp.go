package train

import (
	"math"

	"selsync/internal/comm"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/tensor"
)

// Stale-synchronous parallelism (paper §II-C): workers run asynchronously,
// each pulling the current global model, computing a gradient, and pushing
// it to the PS, which applies it through the shared optimizer. A worker may
// run at most `Staleness` iterations ahead of the slowest worker; beyond
// that it blocks until the slowest catches up.
//
// This loop is a discrete-event simulation over virtual time: the next
// event is always the earliest pending push, so updates from other workers
// land between a worker's pull and its push exactly as they would on the
// real asynchronous testbed — that interleaving is the staleness that
// degrades the deep residual model in Table I. SSP therefore cannot be
// expressed as a per-step SyncPolicy decision; SSPPolicy plugs this loop in
// through the engine's event-loop hook instead.

// runSSPLoop is the body of an SSP run, factored out so tests can inspect
// the cluster (per-worker step spread under the staleness gate) afterwards.
// On a multi-process fabric it dispatches to the coordinator/serve
// protocol of ssp_dist.go: SSP's PS is genuinely central, so rank 0 runs
// the event loop and the other ranks serve compute requests.
func runSSPLoop(r *runner, opts SSPOptions) {
	if link, ok := r.cl.Fabric().(*comm.Mesh); ok && r.cl.Procs() > 1 {
		runSSPMesh(r, opts, link)
		return
	}
	n := r.cl.N()
	global := r.cl.PS.Global

	// The PS owns the update rule in SSP; worker-side optimizer state
	// would be stale. Plain SGD by default — see SSPOptions.PSOpt.
	psParam := &nn.Param{Name: "global", Data: global, Grad: tensor.NewVector(r.cl.Dim())}
	psBuilder := opts.PSOpt
	if psBuilder == nil {
		psBuilder = func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, 0, 0) }
	}
	psOpt := psBuilder([]*nn.Param{psParam})

	completion := make([]float64, n) // virtual push time per running worker
	pending := make([]tensor.Vector, n)
	blocked := make([]bool, n)
	commCost := r.cl.Network.PSPush(r.spec.WireBytes, 1) + r.cl.Network.PSPull(r.spec.WireBytes, 1)

	// start schedules worker w's next iteration at virtual time `now`:
	// pull the current global model, compute a real gradient, and set the
	// push-completion event.
	start := func(w int, now float64) {
		worker := r.cl.Workers[w]
		worker.SetParams(global)
		r.cl.AccountPull(1)
		batch := r.samplers[w].Next()
		x, labels := r.cfg.Train.Batch(batch)
		loss, _ := worker.Model.ComputeGradients(x, labels)
		r.losses[w] = loss
		pending[w] = worker.FlatGrads().Clone()
		tc := worker.Device.ComputeTime(stepFlopsFor(r, len(batch)))
		completion[w] = now + tc + commCost
	}
	for w := 0; w < n; w++ {
		start(w, 0)
	}

	minSteps := func() int {
		m := r.cl.Workers[0].Steps
		for _, w := range r.cl.Workers[1:] {
			if w.Steps < m {
				m = w.Steps
			}
		}
		return m
	}

	totalApplied := 0
	for {
		// Earliest pending push wins.
		next := -1
		for w := 0; w < n; w++ {
			if pending[w] != nil && (next == -1 || completion[w] < completion[next]) {
				next = w
			}
		}
		if next == -1 {
			panic("train: SSP deadlock — all workers blocked")
		}
		now := completion[next]
		worker := r.cl.Workers[next]
		worker.Clock = now

		// Apply the (possibly stale) gradient at the PS.
		psParam.Grad.CopyFrom(pending[next])
		pending[next] = nil
		r.cl.AccountPush(1)
		perWorkerStep := totalApplied / n
		// Updates arrive N× more often than in BSP and are not averaged,
		// so each is applied at lr/N: N asynchronous pushes then do the
		// same total work as one BSP step, leaving staleness (not an
		// inflated step size) as SSP's distinguishing error source.
		psOpt.Step(r.lr(perWorkerStep) / float64(n))
		worker.Steps++
		totalApplied++
		if r.obs != nil {
			// One StepEvent per applied PS update: the pushing worker's
			// own step index and loss, at the push's virtual time.
			r.obs.OnEvent(StepEvent{
				Step:     worker.Steps - 1,
				Action:   ActSyncGrads,
				LR:       r.lr(perWorkerStep) / float64(n),
				MeanLoss: r.losses[next],
				SimTime:  now,
			})
		}

		// Evaluation cadence in per-worker steps.
		if totalApplied%(r.cfg.EvalEvery*n) == 0 || totalApplied >= r.cfg.MaxSteps*n {
			loss, metric := r.evalParams(global)
			r.record(totalApplied/n-1, loss, metric)
		}
		if totalApplied >= r.cfg.MaxSteps*n || r.stop || r.cancelled() {
			break
		}

		// Staleness gate: resume this worker and any unblocked ones.
		ms := minSteps()
		if worker.Steps-ms <= opts.Staleness {
			start(next, now)
		} else {
			blocked[next] = true
		}
		for w := 0; w < n; w++ {
			if blocked[w] && r.cl.Workers[w].Steps-ms <= opts.Staleness {
				blocked[w] = false
				// The blocked worker idled until this event released it.
				resume := math.Max(r.cl.Workers[w].Clock, now)
				r.cl.Workers[w].Clock = resume
				start(w, resume)
			}
		}
	}
}

func stepFlopsFor(r *runner, batch int) float64 {
	return r.spec.FlopsPerSample * float64(batch)
}
