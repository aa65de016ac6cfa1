package train

import (
	"errors"
	"fmt"

	"selsync/internal/cluster"
	"selsync/internal/tensor"
)

// engine drives the SPMD step loop for one run. Everything per-step is
// preallocated — the aggregation buffer, the Signals (with its flags
// slice), and the worker closures, which bind mutable per-step inputs
// (learning rate, clock increments) through engine fields — so a steady-
// state step allocates nothing beyond what the policy itself allocates.
type engine struct {
	r      *runner
	policy SyncPolicy
	sig    Signals
	avg    tensor.Vector

	// Per-step input bound into the reusable closure below.
	lr float64

	syncGradsFn func(*cluster.Worker)

	// presched is the policy's view of a step before its gradients exist
	// (nil: it declares nothing).
	presched Preschedulable
}

// newEngine wires the loop state and runs the policy's Init hook.
func newEngine(r *runner, policy SyncPolicy) *engine {
	e := &engine{
		r:      r,
		policy: policy,
		avg:    tensor.NewVector(r.cl.Dim()),
	}
	e.sig = Signals{
		StepsPerEpoch: r.stepsPerEpoch,
		Workers:       r.cl.N(),
		Seed:          r.cfg.Seed,
		r:             r,
		flags:         make([]bool, r.cl.N()),
	}
	e.syncGradsFn = func(w *cluster.Worker) {
		w.SetGrads(e.avg)
		w.Optimizer.Step(e.lr)
		w.Steps++
		w.SyncSteps++
	}
	e.presched, _ = policy.(Preschedulable)
	if init, ok := policy.(PolicyInit); ok {
		init.Init(&e.sig)
	}
	return e
}

// run executes steps from `start` until the budget or patience stops the
// run, servicing checkpoint requests and observing cancellation at every
// step boundary. It returns the next unexecuted step, whether the run was
// cancelled, and the fabric error that interrupted it (nil on a clean
// stop). Both boundary checks are non-blocking and allocation-free (r.done
// is nil under an uncancellable context and never fires; auto-checkpoints
// cost nothing unless configured).
func (e *engine) run(start int, j *Job) (next int, cancelled bool, err error) {
	for step := start; ; step++ {
		if e.r.stop || step >= e.r.cfg.MaxSteps {
			// Resuming a run that had already stopped (budget exhausted,
			// patience fired) must not train further steps.
			return step, false, nil
		}
		if e.r.memb != nil {
			if merr := e.r.serviceMembership(step, e.policy); merr != nil {
				if errors.Is(merr, ErrRankLeft) {
					// A planned departure, not a fault: no FaultEvent, the
					// runner stays healthy for the rejoin flow.
					return step, false, merr
				}
				return step, false, e.r.fail(step, merr)
			}
		}
		if j != nil {
			if err := j.serviceCheckpoint(step); err != nil {
				return step, false, err
			}
		}
		if e.r.cancelled() {
			return step, true, nil
		}
		stop, err := e.step(step)
		if err != nil {
			return step, false, err
		}
		if stop {
			return step + 1, false, nil
		}
	}
}

// step executes one training step: draw batches, ask the policy what it
// knows already, compute gradients (each worker taking its tracker's norm
// and applying its own update block by block inside the backward pass,
// where the plan allows), ask the policy, execute its action, evaluate on
// cadence. Reports true when the run should stop. A fabric failure anywhere
// in the step — the policy's vote exchange, the synchronization round, the
// evaluation reduction — aborts the step and surfaces the typed error.
func (e *engine) step(step int) (stop bool, err error) {
	r := e.r
	e.lr = r.lr(step)
	injCost := r.nextBatches()
	e.sig.Step = step
	e.sig.err = nil
	r.plan, r.lrNow = StepPlan{}, e.lr
	if e.presched != nil {
		r.plan = e.presched.PlanStep(step)
	}
	r.work = blockWork{observe: r.plan.Observe, apply: r.plan.LocalFirst}
	r.computeGrads()
	act := e.policy.Decide(step, &e.sig)
	err = e.sig.err
	if err == nil {
		err = e.execute(act, injCost)
	}
	if err != nil {
		return false, r.fail(step, err)
	}
	if r.obs != nil {
		// Events are built only behind this nil-check: without an
		// observer the step allocates nothing (alloc_test.go).
		r.obs.OnEvent(StepEvent{
			Step:     step,
			Action:   act.Kind,
			LR:       e.lr,
			MeanLoss: r.hostedMeanLoss(),
			SimTime:  r.hostedMaxClock(),
		})
	}
	stop, err = r.maybeEval(step)
	if err != nil {
		return false, r.fail(step, err)
	}
	return stop, nil
}

// execute carries out one synchronization action through the cluster's
// fabric, advancing step counters and virtual clocks exactly as the
// hand-rolled per-method loops did. On a LocalFirst step the workers' own
// updates are already applied; the step counters and clock adds are a few
// scalar operations per worker and run right here rather than through a
// pool dispatch of their own.
func (e *engine) execute(act Action, injCost float64) error {
	r := e.r
	if act.Kind != ActSyncGrads && !r.plan.LocalFirst {
		r.applyLocal()
	}
	var syncCost float64
	participants := r.cl.N()
	switch act.Kind {
	case ActSyncGrads:
		if r.plan.LocalFirst {
			panic(fmt.Sprintf("train: %s declared a local-first step and returned %v", e.policy.Name(), act.Kind))
		}
		// Push gradients, pull the mean, every worker applies the same
		// averaged update. Replicas that diverged during earlier local
		// phases stay diverged — the inconsistency §III-C warns about.
		if err := r.cl.AggregateGrads(e.avg); err != nil {
			return err
		}
		if act.TrackMeanGradDelta && r.cfg.TrackDeltas {
			r.trackDelta(e.avg.Norm())
		}
		r.cl.Each(e.syncGradsFn)
		syncCost = r.cl.SyncCost()
	case ActSyncParams:
		// The local update is applied (Alg. 1 line 9); push parameters and
		// pull their average: one consistent global state for every replica.
		if err := r.cl.AggregateParams(); err != nil {
			return err
		}
		syncCost = r.cl.SyncCost()
	case ActRoundAverage:
		// FedAvg's round boundary: everyone has applied locally, the chosen
		// participants' parameters average into the global model, everyone
		// pulls it. Push from the participants, pull to all.
		ids := act.Participants
		if ids == nil {
			ids = r.cl.AllWorkerIDs()
		}
		if err := r.cl.ReduceParamsSubset(ids); err != nil {
			return err
		}
		r.cl.Broadcast()
		syncCost = r.cl.Network.PSPush(r.spec.WireBytes, len(ids)) +
			r.cl.Network.PSPull(r.spec.WireBytes, r.cl.N())
		participants = len(ids)
	case ActLocal:
		extra := act.ExtraCost + injCost
		for _, w := range r.cl.Workers {
			w.Steps++
			w.LocalSteps++
			w.Clock += extra
		}
		return nil
	default:
		panic(fmt.Sprintf("train: unknown action kind %v", act.Kind))
	}
	if act.Kind != ActSyncGrads {
		// syncGradsFn counts on the pool, next to the update it applies.
		for _, w := range r.cl.Workers {
			w.Steps++
			w.SyncSteps++
		}
	}
	cost := act.ExtraCost + syncCost + injCost
	if err := r.cl.Barrier(cost); err != nil {
		return err
	}
	if r.obs != nil {
		r.obs.OnEvent(SyncEvent{Step: e.sig.Step, Kind: act.Kind, Participants: participants, CostSeconds: cost})
	}
	return nil
}
