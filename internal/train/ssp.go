package train

import (
	"fmt"
	"slices"

	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/simnet"
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
// degrades the deep residual model in Table I. A lock-step step would hand
// every worker exactly one iteration and the gate would never bind, so SSP
// cannot be a per-step SyncPolicy decision; SSPPolicy plugs this loop in
// through the engine's event-loop hook instead.
//
// The loop is SPMD like the step loop: every rank runs the same event queue
// over all N workers and applies every update to its own copy of the global
// model. The one thing only a worker's owner has — the gradient it just
// computed, with the mini-batch loss and the modelled compute seconds — is
// delivered to every rank by the fabric's diagnostic reduce round over that
// single worker id (the mean of one contribution is the contribution, bit
// for bit, and the round leaves the ledger to the explicit AccountPush /
// AccountPull below). With one rank the round is a local copy.

// runSSPLoop is the body of an SSP run. It returns the per-worker mean step
// count and the fabric error that cut the run short (nil on a clean stop).
func runSSPLoop(r *runner, p *SSPPolicy) (meanSteps int, err error) {
	n, dim := r.cl.N(), r.cl.Dim()
	global := r.cl.PS.Global
	fabric := r.cl.Fabric()

	// The PS owns the update rule in SSP; worker-side optimizer state
	// would be stale. Plain SGD by default — see SSPPolicy.PSOpt.
	psParam := &nn.Param{Name: "global", Data: global, Grad: tensor.NewVector(dim)}
	psBuilder := p.PSOpt
	if psBuilder == nil {
		psBuilder = func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, 0, 0) }
	}
	psOpt := psBuilder([]*nn.Param{psParam})

	steps := make([]int, n)          // applied pushes per worker
	running := make([]bool, n)       // push pending; otherwise held at the gate
	completion := make([]float64, n) // virtual push time per running worker
	// pending[w] is worker w's in-flight message as every rank holds it: the
	// gradient, then the mini-batch loss and the modelled compute seconds.
	// The owner assembles it in stage, the reduce round's one contribution.
	pending := make([]tensor.Vector, n)
	for w := range pending {
		pending[w] = tensor.NewVector(dim + 2)
	}
	stage := tensor.NewVector(dim + 2)
	stageView := func(int) tensor.Vector { return stage }
	id := make([]int, 1)
	commCost := r.cl.Network.PSPush(r.spec.WireBytes, 1) + r.cl.Network.PSPull(r.spec.WireBytes, 1)

	// start schedules worker w's next iteration at virtual time `now`: its
	// owner pulls the current global model and computes a real gradient,
	// every rank receives it and sets the push-completion event.
	start := func(w int, now float64) error {
		r.cl.AccountPull(1)
		if lw := r.cl.LocalWorker(w); lw != nil {
			lw.Clock = now // a worker released from the gate idled until now
			lw.SetParams(global)
			batch := r.samplers[w].Next()
			x, labels := r.cfg.Train.Batch(batch)
			loss, _ := lw.Model.ComputeGradients(x, labels)
			copy(stage, lw.FlatGrads())
			stage[dim] = loss
			stage[dim+1] = lw.Device.ComputeTime(simnet.StepFlops(r.spec.FlopsPerSample, len(batch)))
		}
		id[0] = w
		if err := fabric.ReduceMean(pending[w], id, stageView); err != nil {
			return fmt.Errorf("train: ssp gradient of worker %d: %w", w, err)
		}
		completion[w] = now + pending[w][dim+1] + commCost
		running[w] = true
		return nil
	}

	applied := 0
	for w := 0; w < n; w++ {
		if err := start(w, 0); err != nil {
			return 0, err
		}
	}
	for {
		// Earliest pending push wins.
		next := -1
		for w := 0; w < n; w++ {
			if running[w] && (next == -1 || completion[w] < completion[next]) {
				next = w
			}
		}
		if next == -1 {
			panic("train: SSP deadlock — all workers blocked")
		}
		now := completion[next]

		// Apply the (possibly stale) gradient at the PS.
		psParam.Grad.CopyFrom(pending[next][:dim])
		running[next] = false
		r.cl.AccountPush(1)
		perWorkerStep := applied / n
		// Updates arrive N× more often than in BSP and are not averaged,
		// so each is applied at lr/N: N asynchronous pushes then do the
		// same total work as one BSP step, leaving staleness (not an
		// inflated step size) as SSP's distinguishing error source.
		lr := r.lr(perWorkerStep) / float64(n)
		psOpt.Step(lr)
		steps[next]++
		applied++
		if lw := r.cl.LocalWorker(next); lw != nil {
			// Hosted replicas mirror the queue, so the run clock is the
			// ordinary MaxClock collective.
			lw.Steps, lw.Clock = steps[next], now
		}
		if r.obs != nil {
			// One StepEvent per applied PS update: the pushing worker's
			// own step index and loss, at the push's virtual time.
			r.obs.OnEvent(StepEvent{
				Step:     steps[next] - 1,
				Action:   ActSyncGrads,
				LR:       lr,
				MeanLoss: pending[next][dim],
				SimTime:  now,
			})
		}

		// Evaluation cadence in per-worker steps.
		if applied%(r.cfg.EvalEvery*n) == 0 || applied >= r.cfg.MaxSteps*n {
			r.eval.reps[0].params.CopyFrom(global)
			loss, metric, err := r.evaluate()
			if err != nil {
				return applied / n, err
			}
			r.record(applied/n-1, loss, metric)
			if r.ferr != nil {
				return applied / n, r.ferr // the clock collective failed
			}
		}
		if applied >= r.cfg.MaxSteps*n || r.stop || r.cancelled() {
			return applied / n, nil
		}

		// Staleness gate: resume this worker and any the event released.
		// Event times never decrease, so a released worker resumes at `now`.
		slowest := slices.Min(steps)
		for w := 0; w < n; w++ {
			if !running[w] && steps[w]-slowest <= p.Staleness {
				if err := start(w, now); err != nil {
					return applied / n, err
				}
			}
		}
	}
}
