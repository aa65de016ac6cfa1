package train

import (
	"fmt"
	"math"

	"selsync/internal/cluster"
	"selsync/internal/tensor"
)

// The paper frames BSP, local SGD, FedAvg, SSP and SelSync as points on one
// spectrum — how often, and on what signal, do workers synchronize. The
// engine makes that spectrum literal: one SPMD loop (engine.go) owns
// batching, gradient compute, evaluation, patience and Result assembly, and
// a SyncPolicy owns exactly the per-step synchronization decision. Hybrid
// methods the hand-rolled loops could not express — BSP warmup flowing into
// SelSync steady-state, declarative phase schedules — are just policies
// that wrap other policies (hybrid.go). SSP is the one method whose workers
// do not advance in lock-step; its policy swaps the step loop for an event
// loop (ssp.go) on the same runner, fabric and Result assembly.
//
// What each built-in policy's steps end in, and what it therefore tells the
// engine before a step's gradients exist (Preschedulable / StepPlan) — the
// trackers may be fed and the workers' own updates applied block by block
// inside the backward pass itself:
//
//	policy        a step is                  observe  local-first
//	BSP           sync-grads                 -        -
//	LocalSGD      local                      -        yes
//	SelSync (PA)  local | sync-params        yes      yes
//	SelSync (GA)  local | sync-grads         yes      -
//	FedAvg        local | round-average      -        yes
//	Switch,       the deciding inner         its      its
//	Schedule      policy's (none while a When predicate is pending)
//
// A policy that declares nothing gets the order SyncPolicy.Decide documents.

// ActionKind selects how one step's updates synchronize across workers.
type ActionKind int

const (
	// ActLocal applies each worker's own gradient through its own
	// optimizer; no communication (the local phase of SelSync/FedAvg, every
	// step of pure local SGD).
	ActLocal ActionKind = iota
	// ActSyncGrads aggregates gradients: all workers push, the mean comes
	// back, and every worker applies the same averaged update (BSP,
	// SelSync-GA). Replicas that diverged earlier stay diverged.
	ActSyncGrads
	// ActSyncParams applies the local update first and then averages
	// parameters, forcing every replica onto one consistent state
	// (SelSync-PA).
	ActSyncParams
	// ActRoundAverage applies the local update, averages the parameters of
	// Participants only into the global model, and broadcasts it to
	// everyone — FedAvg's round boundary with partial participation.
	ActRoundAverage
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActLocal:
		return "local"
	case ActSyncGrads:
		return "sync-grads"
	case ActSyncParams:
		return "sync-params"
	case ActRoundAverage:
		return "round-average"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is a SyncPolicy's decision for one step.
type Action struct {
	Kind ActionKind
	// ExtraCost is additional virtual seconds the decision itself cost —
	// SelSync's one-bit flags allgather, for example. It is added to the
	// step's synchronization cost (sync kinds) or to every worker's clock
	// (ActLocal).
	ExtraCost float64
	// Participants are the workers whose parameters push during
	// ActRoundAverage, in reduction order; nil means all workers in id
	// order. Ignored by the other kinds.
	Participants []int
	// TrackMeanGradDelta feeds the synchronized mean gradient's L2 norm
	// into worker 0's Δ(g_i) tracker under Config.TrackDeltas — the Fig. 5
	// series BSP records. Only meaningful with ActSyncGrads.
	TrackMeanGradDelta bool
}

// SyncPolicy decides, for every step of the engine loop, how the freshly
// computed gradients synchronize. Decide runs SPMD: on a multi-process
// fabric every rank calls it at the same point with the same step, and its
// decision must be rank-invariant (derive it from Signals and policy state
// only — both are identical on every rank by construction). Policies are
// single-run: they may carry mutable per-run state (RNG streams, switch
// flags), so build a fresh value for every job.
type SyncPolicy interface {
	// Name labels the Result ("BSP", "SelSync(δ=0.18,ParamAgg)", ...).
	Name() string
	// Decide is called once per step, after gradient computation and
	// before any update is applied — except the worker's own local update
	// on a step the policy declared LocalFirst (Preschedulable), which
	// every action such a step can end in would have begun with.
	Decide(step int, sig *Signals) Action
}

// PolicyInit is an optional SyncPolicy lifecycle hook: policies that derive
// state from the run's shape (rounds per epoch, participant counts, RNG
// streams) receive the run's Signals once, before step 0.
type PolicyInit interface {
	Init(sig *Signals)
}

// StepPlan is what a policy knows about a step before that step's gradients
// exist. The zero value declares nothing, and the engine then runs the step
// in Decide's documented order: compute, decide, apply.
type StepPlan struct {
	// Observe says Decide will call Signals.UpdateTrackers. Each worker then
	// takes its gradient's norm block by block inside its backward pass, each
	// block as soon as the layer that writes it is done and while it is
	// still in cache, and feeds its Δ(g_i) tracker when the pass ends; the
	// call in Decide finds the step observed.
	Observe bool
	// LocalFirst says Decide will not return ActSyncGrads. Every other kind
	// begins with each worker's own update (Alg. 1 line 9), and no Signals
	// accessor reads parameters, so each worker applies it inside its
	// backward pass — to each block of the arena once the block's gradient is
	// final, which no layer below reads, with opt.Optimizer.StepRange — and
	// the action is executed without it. An optimizer that rewrites the
	// gradients it is stepped with would make the policy's gradient reads see
	// its output; the built-in ones only read them.
	LocalFirst bool
}

// Preschedulable is the optional SyncPolicy hook for everything the engine
// can do earlier than Decide: PlanStep is asked before the step's gradients
// are computed, must not change the policy's state, and must give the same
// answer on every rank. What it returns moves work, never results — a run
// with the hook hidden is the same run, bit for bit.
type Preschedulable interface {
	PlanStep(step int) StepPlan
}

// eventLoopPolicy is the escape hatch for methods that cannot be expressed
// as a per-step decision: SSP's discrete-event simulation replaces the
// engine loop entirely. runEventLoop returns the per-worker mean step count
// and the fabric error that interrupted the loop (nil on a clean stop).
// Internal on purpose — composite policies reject it, and external packages
// compose the step-based policies instead.
type eventLoopPolicy interface {
	SyncPolicy
	runEventLoop(r *runner) (steps int, err error)
	finalizeResult(res *Result)
}

// Signals carries the per-step information a SyncPolicy decides on: the
// run's shape plus accessors for the gradient/parameter-delta statistics
// and the collective vote SelSync-style policies consume. Every accessor is
// rank-safe: statistics read hosted workers only, and VoteAny crosses the
// fabric so its answer agrees on every rank.
type Signals struct {
	// Step is the current training step, 0-based.
	Step int
	// StepsPerEpoch is how many steps one global pass over the training
	// set takes (≥ 1).
	StepsPerEpoch int
	// Workers is the global worker count N.
	Workers int
	// Seed is the run's seed; policies derive private RNG streams from it
	// so every rank draws identically.
	Seed uint64

	r     *runner
	flags []bool
	// err records the first fabric failure a signal accessor hit this
	// step. The engine checks it after Decide returns, so a policy whose
	// vote exchange died surfaces the typed error instead of training on a
	// broken fabric. Reset at every step boundary.
	err error
}

// UpdateTrackers feeds every hosted worker's current gradient norm into its
// Δ(g_i) tracker (Alg. 1 lines 8-9), each worker on its own pool goroutine:
// a tracker sees its own worker's gradients only, so the observation streams
// are the same in any order. On a step the policy declared Observe the
// workers already did so inside their backward passes, and this is a no-op.
func (s *Signals) UpdateTrackers() {
	if !s.r.plan.Observe {
		s.r.work = blockWork{observe: true}
		s.r.cl.Each(s.r.wholeFn)
	}
}

// VoteAny runs the one-bit significance allgather: vote is evaluated for
// every hosted worker, the bits cross the fabric, and VoteAny reports
// whether any of the N workers voted true — the same answer on every rank.
// The virtual cost of the exchange is FlagsCost. If the exchange fails the
// typed error is recorded for the engine (which aborts the step) and
// VoteAny returns false — the policy's decision for the doomed step is
// never executed.
func (s *Signals) VoteAny(vote func(w *cluster.Worker) bool) bool {
	for _, w := range s.r.cl.Workers {
		s.flags[w.ID] = vote(w)
	}
	any, err := s.r.cl.ExchangeFlags(s.flags)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return false
	}
	return any
}

// FlagsCost returns the virtual seconds one VoteAny exchange costs.
func (s *Signals) FlagsCost() float64 { return s.r.cl.FlagsCost() }

// EmitPhaseSwitch delivers a PhaseSwitchEvent to the run's observer (a
// no-op without one). Composite policies call it when they hand the
// per-step decision to a different inner policy; custom composites can
// too.
func (s *Signals) EmitPhaseSwitch(from, to string) {
	if s.r.obs != nil {
		s.r.obs.OnEvent(PhaseSwitchEvent{Step: s.Step, From: from, To: to})
	}
}

// RecordTrackerDelta appends worker 0's current Δ(g_i) to the Result's
// Fig. 5 series under Config.TrackDeltas (no-op otherwise, and on ranks not
// hosting worker 0).
func (s *Signals) RecordTrackerDelta() {
	if !s.r.cfg.TrackDeltas {
		return
	}
	if w0 := s.r.cl.LocalWorker(0); w0 != nil {
		s.r.res.Deltas = append(s.r.res.Deltas, w0.Tracker.Delta())
	}
}

// RecordOwnGradDelta feeds the first hosted worker's own (un-aggregated)
// gradient norm into the diagnostics tracker and records the resulting
// Δ(g_i) under Config.TrackDeltas — the series pure local SGD reports. The
// O(dim) norm is computed only on the rank that actually records.
func (s *Signals) RecordOwnGradDelta() {
	if s.r.diagTracker == nil {
		return
	}
	s.r.trackDelta(math.Sqrt(s.r.cl.Workers[0].FlatGrads().Norm2()))
}

// BSPPolicy is bulk-synchronous parallelism as a policy: every step is a
// gradient aggregation (paper §II-A). The blocking barrier and full
// synchronization cost are paid by the engine's ActSyncGrads path.
type BSPPolicy struct{}

// Name implements SyncPolicy.
func (BSPPolicy) Name() string { return "BSP" }

// Decide implements SyncPolicy.
func (BSPPolicy) Decide(step int, sig *Signals) Action {
	return Action{Kind: ActSyncGrads, TrackMeanGradDelta: true}
}

// LocalSGDPolicy never synchronizes after the initial broadcast — the δ ≥ M
// degeneration of SelSync (paper Fig. 6). The reported metric still
// evaluates the across-replica mean.
type LocalSGDPolicy struct{}

// Name implements SyncPolicy.
func (LocalSGDPolicy) Name() string { return "LocalSGD" }

// Decide implements SyncPolicy.
func (LocalSGDPolicy) Decide(step int, sig *Signals) Action {
	sig.RecordOwnGradDelta()
	return Action{Kind: ActLocal}
}

// PlanStep implements Preschedulable: every step ends in each worker's own
// update.
func (LocalSGDPolicy) PlanStep(step int) StepPlan { return StepPlan{LocalFirst: true} }

// SelSyncPolicy is the paper's selective synchronization (Alg. 1): every
// step each worker updates its Δ(g_i) tracker and votes to synchronize when
// Δ(g_i) ≥ δ; one dissenting vote makes the step synchronous for everyone.
// The one-bit vote exchange is charged to every step as ExtraCost.
type SelSyncPolicy struct {
	// Delta is the significance threshold δ: 0 degenerates to BSP, values
	// above the maximum observed Δ(g_i) to pure local SGD.
	Delta float64
	// Mode selects gradient vs parameter aggregation on synchronous steps
	// (paper §III-C; ParamAgg is the recommended mode).
	Mode cluster.AggMode
}

// Name implements SyncPolicy.
func (p SelSyncPolicy) Name() string {
	return fmt.Sprintf("SelSync(δ=%g,%s)", p.Delta, p.Mode)
}

// Decide implements SyncPolicy.
func (p SelSyncPolicy) Decide(step int, sig *Signals) Action {
	sig.UpdateTrackers()
	anySync := sig.VoteAny(func(w *cluster.Worker) bool { return w.Tracker.Exceeds(p.Delta) })
	sig.RecordTrackerDelta()
	act := Action{Kind: ActLocal, ExtraCost: sig.FlagsCost()}
	if anySync {
		switch p.Mode {
		case cluster.GradAgg:
			act.Kind = ActSyncGrads
		case cluster.ParamAgg:
			act.Kind = ActSyncParams
		default:
			panic("train: unknown aggregation mode")
		}
	}
	return act
}

// PlanStep implements Preschedulable: every step feeds the trackers, and
// under parameter aggregation every step, synchronizing or not, begins with
// the workers' own updates (Alg. 1 line 9).
func (p SelSyncPolicy) PlanStep(step int) StepPlan {
	return StepPlan{Observe: true, LocalFirst: p.Mode == cluster.ParamAgg}
}

// FedAvgPolicy is Federated Averaging (paper §II-B): workers run local SGD
// and, 1/E times per epoch, a random fraction C of them push their
// parameters into the global model that everyone then pulls. With C < 1 the
// non-participants' progress is discarded by the pull — the accuracy hazard
// Table I shows for the (0.5, ·) configurations.
type FedAvgPolicy struct {
	// C is the fraction of workers whose updates are collected per round.
	C float64
	// E is the synchronization factor 1/x: parameters synchronize x times
	// per epoch (E=0.25 → 4 rounds per epoch).
	E float64

	syncEvery    int
	participants int
	pickRNG      *tensor.RNG
}

// Name implements SyncPolicy.
func (p *FedAvgPolicy) Name() string { return fmt.Sprintf("FedAvg(C=%g,E=%g)", p.C, p.E) }

// Init implements PolicyInit: derive the round cadence from the run's epoch
// length and seed the participant picker. The pick RNG is seeded from the
// run seed, so every rank draws the same participant set without a
// broadcast.
func (p *FedAvgPolicy) Init(sig *Signals) {
	if p.C <= 0 || p.C > 1 {
		panic("train: FedAvg C must be in (0, 1]")
	}
	if p.E <= 0 || p.E > 1 {
		panic("train: FedAvg E must be in (0, 1]")
	}
	p.syncEvery = int(math.Round(p.E * float64(sig.StepsPerEpoch)))
	if p.syncEvery < 1 {
		p.syncEvery = 1
	}
	p.participants = int(math.Round(p.C * float64(sig.Workers)))
	if p.participants < 1 {
		p.participants = 1
	}
	p.pickRNG = tensor.NewRNG(sig.Seed ^ 0xFEDA)
}

// Decide implements SyncPolicy.
func (p *FedAvgPolicy) Decide(step int, sig *Signals) Action {
	if (step+1)%p.syncEvery == 0 {
		return Action{Kind: ActRoundAverage, Participants: p.pickRNG.Sample(sig.Workers, p.participants)}
	}
	return Action{Kind: ActLocal}
}

// PlanStep implements Preschedulable: a local step and a round boundary both
// begin with the workers' own updates.
func (p *FedAvgPolicy) PlanStep(step int) StepPlan { return StepPlan{LocalFirst: true} }

// CheckpointState implements CheckpointablePolicy: the participant picker
// is the policy's only mutable state (the cadence is re-derived by Init).
func (p *FedAvgPolicy) CheckpointState() PolicyState {
	return PolicyState{Name: p.Name(), Words: []uint64{p.pickRNG.State()}}
}

// RestoreState implements CheckpointablePolicy.
func (p *FedAvgPolicy) RestoreState(st PolicyState) error {
	if len(st.Words) != 1 {
		return fmt.Errorf("train: FedAvg checkpoint state wants 1 word, got %d", len(st.Words))
	}
	if p.pickRNG == nil {
		return fmt.Errorf("train: FedAvg state restored before Init")
	}
	p.pickRNG.SetState(st.Words[0])
	return nil
}

// SSPPolicy is stale-synchronous parallelism (paper §II-C). SSP has no
// per-step collective decision — workers run asynchronously against a
// central PS under a staleness bound — so this policy replaces the SPMD
// step loop with the discrete-event simulation of ssp.go, which every rank
// of a multi-process fabric runs SPMD like the step loop it replaces. It
// cannot be composed into Switch/Schedule policies.
type SSPPolicy struct {
	// Staleness is the maximum number of iterations fast workers may run
	// ahead of the slowest one.
	Staleness int
	// PSOpt overrides the update rule the parameter server applies to
	// pushed gradients. Nil selects plain SGD: momentum-style optimizers
	// are unstable under asynchronous interleaving (the velocity keeps
	// integrating stale directions), which is itself one face of the
	// staleness problems §IV-E reports for SSP.
	PSOpt cluster.OptBuilder
}

// Name implements SyncPolicy.
func (p *SSPPolicy) Name() string { return fmt.Sprintf("SSP(s=%d)", p.Staleness) }

// Decide implements SyncPolicy. It is never called: SSP replaces the step
// loop via the event-loop hook.
func (p *SSPPolicy) Decide(step int, sig *Signals) Action {
	panic("train: SSPPolicy replaces the engine loop; Decide is never called")
}

func (p *SSPPolicy) runEventLoop(r *runner) (int, error) {
	if p.Staleness < 0 {
		panic("train: SSP staleness must be non-negative")
	}
	return runSSPLoop(r, p)
}

func (p *SSPPolicy) finalizeResult(res *Result) {
	res.LSSR = -1 // no synchronous/local split exists in SSP (paper §IV-E)
}
