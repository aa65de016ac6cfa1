package train

// The typed event stream. A Job with an observer attached delivers one
// event value per observable moment of a run: every engine step, every
// synchronization round, every test evaluation, every composite-policy
// phase switch, and every checkpoint capture. Events are plain value
// structs — observers receive them synchronously on the training
// goroutine, so an observer must be fast (or hand off to its own
// goroutine) and must not call back into the Job.
//
// When no observer is attached the engine never constructs an event: the
// hot path stays allocation-free (alloc_test.go pins this), so the event
// machinery costs nothing unless asked for.
//
// On a multi-process fabric every rank observes its own local view of the
// SPMD loop (identical decisions, hosted-worker losses and clocks). Under
// SSP every rank applies every update, so every rank observes the whole
// run's step and eval events.

// Event is the interface all training events implement. It is sealed: the
// concrete types below are the full taxonomy.
type Event interface {
	// EventType returns the stable machine-readable name of the concrete
	// event type ("step", "sync", "eval", "phase-switch", "checkpoint") —
	// the "type" field of the JSONL sink.
	EventType() string
}

// StepEvent fires once per completed training step.
type StepEvent struct {
	// Step is the 0-based step index.
	Step int
	// Action is the synchronization decision the policy made this step.
	Action ActionKind
	// LR is the learning rate the step applied.
	LR float64
	// MeanLoss is the mean training loss across this rank's hosted
	// workers for the step's batches.
	MeanLoss float64
	// SimTime is the latest hosted worker's virtual clock after the step.
	// (A rank-local read: on a multi-process fabric it reflects this
	// rank's workers only — clock collectives are never triggered by
	// observation.)
	SimTime float64
}

// EventType implements Event.
func (StepEvent) EventType() string { return "step" }

// SyncEvent fires for every step whose updates crossed the fabric — a
// gradient aggregation, a parameter aggregation, or a FedAvg round
// average. It is delivered immediately before the step's StepEvent.
type SyncEvent struct {
	// Step is the 0-based step index.
	Step int
	// Kind is the synchronization action (ActSyncGrads, ActSyncParams or
	// ActRoundAverage).
	Kind ActionKind
	// Participants is how many workers pushed state (N except under
	// FedAvg partial participation).
	Participants int
	// CostSeconds is the virtual cost charged for the round, including
	// the policy's extra cost (flag exchanges) and injection traffic.
	CostSeconds float64
}

// EventType implements Event.
func (SyncEvent) EventType() string { return "sync" }

// EvalEvent fires after every test-set evaluation.
type EvalEvent struct {
	// Step is the 1-based step count at the evaluation (EvalPoint.Step).
	Step int
	// Epoch is the equivalent global epoch count.
	Epoch float64
	// SimTime is the run's virtual time at the evaluation.
	SimTime float64
	// Loss is the mean test loss.
	Loss float64
	// Metric is the model's metric: accuracy % or perplexity.
	Metric float64
	// Best reports whether this evaluation set a new best metric.
	Best bool
}

// EventType implements Event.
func (EvalEvent) EventType() string { return "eval" }

// PhaseSwitchEvent fires when a composite policy (SwitchPolicy,
// SchedulePolicy) hands the per-step decision to a different inner policy.
type PhaseSwitchEvent struct {
	// Step is the first step the new policy governs.
	Step int
	// From and To are the inner policies' names.
	From, To string
}

// EventType implements Event.
func (PhaseSwitchEvent) EventType() string { return "phase-switch" }

// CheckpointEvent fires when a mid-run checkpoint is captured at a step
// boundary. Post-run Checkpoint calls capture on the requester's
// goroutine and emit no event, preserving the Observer single-goroutine
// contract.
type CheckpointEvent struct {
	// Step is the step the checkpoint resumes from (the first step the
	// restored run will execute).
	Step int
	// Workers is how many hosted workers the checkpoint carries.
	Workers int
}

// EventType implements Event.
func (CheckpointEvent) EventType() string { return "checkpoint" }

// FaultEvent fires when a training step hits a fabric failure — a typed
// comm error (comm.ErrPeerDown, comm.ErrTimeout, comm.ErrCrashed wrapped
// in a *comm.PeerError) that broke a collective. It is delivered once, on
// the training goroutine, immediately before Job.Run returns the partial
// Result and the same error.
type FaultEvent struct {
	// Step is the 0-based step the failure interrupted.
	Step int
	// Err is the typed fabric error (dispatch with errors.Is).
	Err error
}

// EventType implements Event.
func (FaultEvent) EventType() string { return "fault" }

// ViewChangeEvent fires when the run's elastic membership changes at a
// step boundary: a rank departed (planned or detected) or rejoined. The
// engine keeps stepping over the survivors while the quorum holds.
type ViewChangeEvent struct {
	// Step is the 0-based step whose boundary applied the transition.
	Step int
	// Epoch is the membership view epoch after the transition.
	Epoch uint64
	// Rank is the rank that left or rejoined.
	Rank int
	// Join is true for a readmission, false for a departure.
	Join bool
	// Live is the number of live ranks after the transition.
	Live int
	// Quorum is the run's continuation threshold.
	Quorum int
}

// EventType implements Event.
func (ViewChangeEvent) EventType() string { return "view-change" }

// RecoveryEvent fires when a Job successfully restores from a checkpoint
// (WithResume), immediately before the first restored step executes — the
// observable moment a supervised rank rejoins a run after a crash.
type RecoveryEvent struct {
	// Step is the first step the restored run will execute.
	Step int
	// Workers is how many hosted workers the checkpoint carried.
	Workers int
}

// EventType implements Event.
func (RecoveryEvent) EventType() string { return "recovery" }

// Observer receives the event stream of a Job. OnEvent is called
// synchronously on the training goroutine in event order; implementations
// must be fast and must not call back into the Job (Job.Checkpoint from an
// observer would deadlock). Cancelling the run's context from an observer
// is allowed — it is the deterministic way to stop a run at a known step.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// MultiObserver fans one event stream out to several observers in order.
func MultiObserver(obs ...Observer) Observer {
	list := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			list = append(list, o)
		}
	}
	return list
}

type multiObserver []Observer

// OnEvent implements Observer.
func (m multiObserver) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}
