package train

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"selsync/internal/comm"
)

// Job is a first-class training run: constructed once with NewJob,
// executed once with Run, observable through a typed event stream,
// cancellable through its context, and checkpointable mid-flight or after
// it ends. NewJob(cfg, policy).Run(ctx) is the one way into a training run.
//
// A Job is single-shot — Run may be called once. Checkpoint is safe to
// call concurrently with Run (the snapshot is taken at the next step
// boundary by the training goroutine itself) and after Run returns.
type Job struct {
	cfg    Config
	policy SyncPolicy
	obs    Observer
	resume *Checkpoint

	// rejoin keeps a rank that departs at a planned membership boundary
	// in-process: Run blocks on the rank-0 state transfer and re-enters
	// the step loop at the rank's join boundary. lateJoin additionally
	// skips the initial training entirely — the process missed the start
	// of the run (relaunched with -join) and begins at the transfer.
	rejoin   bool
	lateJoin bool

	// ckptCh carries mid-run checkpoint requests to the engine loop;
	// runStarted closes when Run is entered, so a Checkpoint launched
	// concurrently with Run waits for it instead of racing; runDone
	// closes when Run returns, releasing requesters to capture from the
	// quiesced run directly.
	ckptCh     chan chan ckptReply
	runStarted chan struct{}
	runDone    chan struct{}

	// Auto-checkpoint configuration (WithAutoCheckpoint): every autoEvery
	// steps the training goroutine captures a checkpoint and hands it to
	// autoSink. Zero/nil means off — serviceCheckpoint's hot path stays
	// allocation-free.
	autoEvery int
	autoSink  func(step int, ck *Checkpoint) error

	mu       sync.Mutex
	started  bool
	finished bool
	r        *runner
	nextStep int
	res      *Result
	emerg    *Checkpoint
}

type ckptReply struct {
	ck  *Checkpoint
	err error
}

// Option configures a Job.
type Option func(*Job)

// WithObserver attaches an observer to the job's event stream. Multiple
// observers compose with MultiObserver. With no observer attached the
// engine never constructs an event and the hot path stays
// allocation-free.
func WithObserver(o Observer) Option {
	return func(j *Job) {
		if j.obs == nil {
			j.obs = o
		} else {
			j.obs = MultiObserver(j.obs, o)
		}
	}
}

// WithAutoCheckpoint captures a checkpoint every `every` steps on the
// training goroutine and hands it to sink (which typically saves it to
// disk — SaveCheckpoint). The same cadence on every rank of an SPMD run
// yields a consistent recovery line: after a crash, all ranks resume from
// the latest step every rank's sink persisted and the run reproduces the
// uninterrupted digest. A sink error stops the run (a recovery line that
// silently stopped advancing is worse than a loud failure). A CheckpointEvent
// is emitted per capture when an observer is attached.
func WithAutoCheckpoint(every int, sink func(step int, ck *Checkpoint) error) Option {
	return func(j *Job) {
		j.autoEvery = every
		j.autoSink = sink
	}
}

// WithResume starts the run from a checkpoint instead of from scratch.
// The job's Config and policy must be constructed identically to the
// producing run's (same model, seed, workers, method and rank layout);
// Run verifies and refuses mismatches. A resumed run continues
// bit-identically to one that was never interrupted.
func WithResume(ck *Checkpoint) Option {
	return func(j *Job) { j.resume = ck }
}

// WithRejoin keeps this rank in the run across a planned departure: when
// the membership plan makes it leave, Run waits in-process for the rank's
// next join event, restores the state rank 0 streams over the fabric, and
// continues — instead of returning the partial Result with ErrRankLeft.
func WithRejoin() Option {
	return func(j *Job) { j.rejoin = true }
}

// WithLateJoin marks this process as a hot-rejoining rank that missed the
// start of the run (selsync-node -join): Run skips the initial training
// entirely, blocks on the rank-0 state transfer for this rank's join
// event, and enters the step loop there. Implies WithRejoin for any later
// leave/join cycles in the plan.
func WithLateJoin() Option {
	return func(j *Job) { j.rejoin = true; j.lateJoin = true }
}

// NewJob builds a job over a config and a synchronization policy. The
// policy must be a fresh value per job — policies carry per-run state.
func NewJob(cfg Config, policy SyncPolicy, opts ...Option) *Job {
	j := &Job{
		cfg:        cfg,
		policy:     policy,
		ckptCh:     make(chan chan ckptReply),
		runStarted: make(chan struct{}),
		runDone:    make(chan struct{}),
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Run executes the job. It blocks until the run completes, the context is
// cancelled, or construction fails:
//
//   - On normal completion it returns the final Result and a nil error.
//   - On context cancellation (or deadline) it stops at the next step
//     boundary and returns a partial-but-valid Result — consistent step
//     counters and the evaluation history so far — together with
//     ctx.Err(). The job can then be checkpointed and resumed later.
//   - Configuration and policy-validation mistakes return an error
//     before any training happens.
//
// Cancellation is observed at step boundaries, rank-locally. On a
// multi-process fabric a lone rank cancelling would leave its peers
// blocked in a collective, so cancel deterministically on every rank at
// the same step (an observer watching StepEvent.Step, or a shared
// deadline measured in steps); for interactive multi-process use prefer
// checkpointing a completed shorter run and resuming with a larger
// budget.
func (j *Job) Run(ctx context.Context) (*Result, error) {
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return nil, fmt.Errorf("train: job already ran (jobs are single-shot; build a new one)")
	}
	j.started = true
	j.mu.Unlock()
	close(j.runStarted)
	defer close(j.runDone)

	if err := j.cfg.Validate(); err != nil {
		j.finish(nil, 0, nil)
		return nil, err
	}
	ev, eventLoop := j.policy.(eventLoopPolicy)
	if eventLoop {
		if err := j.refuseEventLoop(); err != nil {
			j.finish(nil, 0, nil)
			return nil, err
		}
	}

	// Construction and policy Init turn their validation panics into
	// errors; a panic after the cluster exists must release its worker
	// pool (Close is idempotent).
	var r *runner
	var e *engine
	err := capturePanic(func() {
		r = newRunner(j.cfg, j.policy.Name(), j.resume != nil || j.lateJoin)
		r.obs = j.obs
		r.done = ctx.Done()
		defer func() {
			if p := recover(); p != nil {
				r.cl.Close()
				panic(p)
			}
		}()
		if !eventLoop {
			e = newEngine(r, j.policy)
		}
	})
	if err != nil {
		j.finish(r, 0, nil)
		return nil, err
	}
	j.mu.Lock()
	j.r = r // mid-run checkpoint requests capture from it
	j.mu.Unlock()
	// A panic anywhere past construction — a custom policy's Decide, an
	// observer — must release the cluster's worker pool (Close is
	// idempotent), so harnesses that recover don't leak goroutines.
	defer func() {
		if p := recover(); p != nil {
			r.cl.Close()
			panic(p)
		}
	}()

	if eventLoop {
		var steps int
		var loopErr error
		if err := capturePanic(func() { steps, loopErr = ev.runEventLoop(r) }); err != nil {
			r.cl.Close()
			j.finish(r, 0, nil)
			return nil, err
		}
		if loopErr != nil {
			// The step loop's fault path, minus the emergency checkpoint an
			// event loop cannot take: break the runner, emit the FaultEvent,
			// hand back the partial Result with the typed error.
			r.fail(steps, loopErr)
		}
		res := r.finishCounts(steps, 0, 0)
		ev.finalizeResult(res)
		j.finish(r, 0, res)
		if loopErr != nil {
			return res, loopErr
		}
		return res, ctx.Err()
	}

	start := 0
	if j.resume != nil {
		// An elastic resume must rebuild the membership topology — plan
		// cursor, view, rank-0's adopted replicas — before the restore
		// overwrites worker state against it.
		r.replayStructural(func(_ int, ev MemberEvent) bool { return ev.Step <= j.resume.Step })
		var rerr error
		start, rerr = restoreCheckpoint(r, j.policy, j.resume)
		if rerr != nil {
			r.cl.Close()
			j.finish(r, 0, nil)
			return nil, rerr
		}
		if r.obs != nil {
			r.obs.OnEvent(RecoveryEvent{Step: start, Workers: len(j.resume.Hosted)})
		}
	}
	if j.lateJoin {
		st, ok, jerr := j.awaitRejoin(r)
		if jerr != nil {
			r.cl.Close()
			j.finish(r, 0, nil)
			return nil, jerr
		}
		if !ok {
			r.cl.Close()
			j.finish(r, 0, nil)
			return nil, fmt.Errorf("train: late join requested but the membership plan has no pending join for this rank")
		}
		start = st
	}

	next, cancelled, runErr := e.run(start, j)
	for runErr != nil && errors.Is(runErr, ErrRankLeft) {
		if !j.rejoin {
			// A planned departure without a rejoin mandate: a clean exit
			// with the partial Result. No emergency checkpoint — nothing
			// broke; the supervisor maps ErrRankLeft to the -join relaunch.
			// The runner must stop touching collectives (the survivors no
			// longer include this rank), so clock reads go rank-local.
			r.setBroken(runErr)
			res := r.finish()
			j.finish(r, next, res)
			return res, runErr
		}
		st, ok, jerr := j.awaitRejoin(r)
		if jerr != nil {
			r.setBroken(jerr)
			runErr = jerr
			break
		}
		if !ok {
			// The plan never readmits this rank: permanent departure, a
			// clean partial result assembled from rank-local state.
			r.setBroken(runErr)
			runErr = nil
			break
		}
		next, cancelled, runErr = e.run(st, j)
	}
	if runErr != nil {
		// Fault path: a collective died mid-run (peer crash, timeout,
		// partition). Salvage what this rank still has — an emergency
		// checkpoint marked Dirty (resume-refused; for state forensics and
		// the supervisor's restart decision) and a partial-but-valid
		// Result assembled from rank-local state — then surface the typed
		// error.
		j.emergencyCheckpoint(next)
		res := r.finish()
		j.finish(r, next, res)
		return res, runErr
	}
	res := r.finish()
	j.finish(r, next, res)
	if cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// refuseEventLoop reports the first job option or Config feature an
// event-loop policy cannot honour. Such a policy replaces the step loop, and
// with it everything that loop's boundaries service — checkpoints in either
// direction, membership transitions — and the codec path of its
// synchronization round. The job's own fields decide every case, so the
// refusal comes before the cluster is built.
func (j *Job) refuseEventLoop() error {
	_, _, elastic, _ := j.cfg.membership() // Validate has parsed the plan
	codec, _ := comm.ParseCodec(j.cfg.Codec)
	var what string
	switch {
	case j.resume != nil:
		what = "resume from a checkpoint"
	case j.autoEvery > 0:
		what = "take auto-checkpoints"
	case j.rejoin:
		what = "rejoin a run it left or missed the start of"
	case elastic:
		what = "run under elastic membership"
	case !codec.Nop():
		what = "send through a payload codec"
	default:
		return nil
	}
	return fmt.Errorf("train: %s replaces the step loop and cannot %s", j.policy.Name(), what)
}

// emergencyCheckpoint best-effort captures the run's state after a fabric
// failure. The checkpoint is marked Dirty: the failing step was torn mid-
// collective, so samplers and RNG streams have advanced past the last
// consistent boundary and a bit-identical resume is impossible — restore
// refuses it. It is retained on the Job (EmergencyCheckpoint) and handed
// to the auto-checkpoint sink when one is configured; capture or sink
// errors are swallowed — the typed fabric error must win.
func (j *Job) emergencyCheckpoint(step int) {
	r := j.r0()
	ck, err := captureCheckpoint(r, j.policy, step)
	if err != nil {
		return
	}
	ck.Dirty = true
	j.mu.Lock()
	j.emerg = ck
	j.mu.Unlock()
	if j.autoSink != nil {
		j.autoSink(step, ck)
	}
}

// EmergencyCheckpoint returns the Dirty checkpoint captured when the run
// died on a fabric failure (nil otherwise). It cannot be resumed — restore
// refuses Dirty checkpoints — but records the salvaged state for
// diagnosis.
func (j *Job) EmergencyCheckpoint() *Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.emerg
}

// finish records the post-run state Checkpoint and Result read (under
// the mutex: Result may be polled from another goroutine while Run
// returns).
func (j *Job) finish(r *runner, next int, res *Result) {
	j.mu.Lock()
	j.finished = true
	j.r = r
	j.nextStep = next
	j.res = res
	j.mu.Unlock()
}

// Result returns the Result of a completed run (nil before Run returns).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

// Checkpoint snapshots the run at a step boundary. It first waits for Run
// to be entered, so launching Checkpoint from another goroutine before or
// concurrently with Run is race-free. Called while the run is in flight
// it then blocks until the training goroutine reaches the next boundary
// and captures there (emitting a CheckpointEvent on that goroutine);
// called after Run returned (completed, cancelled, or stopped early) it
// captures the final state — without an event — which a new Job can
// resume with a larger step budget.
//
// The context bounds the waiting: a done ctx releases a Checkpoint whose
// Run never starts, or never reaches another boundary, with ctx.Err().
// Under an event-loop policy (SSP replaces the step loop that services
// requests) it fails immediately rather than blocking for the rest of the
// run. It must not be called from an observer (the training goroutine
// would wait on itself).
func (j *Job) Checkpoint(ctx context.Context) (*Checkpoint, error) {
	// j.policy is immutable after NewJob, so this fail-fast needs no lock.
	if _, ok := j.policy.(eventLoopPolicy); ok {
		return nil, fmt.Errorf("train: %s replaces the step loop and cannot be checkpointed", j.policy.Name())
	}
	// Progress beats a simultaneously-done ctx: select picks randomly
	// among ready cases, so a started (or finished) run is checked
	// non-blocking first. Reusing the run's own expired context —
	// Run(ctx) returned DeadlineExceeded, then Checkpoint(ctx) — must
	// capture the quiesced state, not flake on ctx.Err().
	select {
	case <-j.runStarted:
	default:
		select {
		case <-j.runStarted:
		case <-ctx.Done():
			return nil, fmt.Errorf("train: checkpoint abandoned before Run started: %w", ctx.Err())
		}
	}
	select {
	case <-j.runDone:
		return j.checkpointFinal()
	default:
	}

	reply := make(chan ckptReply, 1)
	select {
	case j.ckptCh <- reply:
		// The engine owns the request now and replies within one step —
		// unless the run panics out from under it (observer or policy
		// panic repanicking through Run), which closes runDone with the
		// reply possibly never sent.
		select {
		case res := <-reply:
			return res.ck, res.err
		case <-j.runDone:
			select {
			case res := <-reply:
				return res.ck, res.err
			default:
				return nil, fmt.Errorf("train: run ended before servicing the checkpoint request")
			}
		}
	case <-j.runDone:
		return j.checkpointFinal()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// checkpointFinal captures from a run that has already returned. Only a
// run that produced a Result — completed, cancelled, or patience-stopped
// — can be captured: a failed Run (construction, Init, resume mismatch)
// or one that panicked out leaves no consistent state, and capturing it
// would at best snapshot a fresh step-0 run and at worst dereference a
// half-built policy.
func (j *Job) checkpointFinal() (*Checkpoint, error) {
	j.mu.Lock()
	r, next, res, finished := j.r, j.nextStep, j.res, j.finished
	j.mu.Unlock()
	if !finished || r == nil || res == nil {
		return nil, fmt.Errorf("train: nothing to checkpoint (the run failed)")
	}
	return captureCheckpoint(r, j.policy, next)
}

// serviceCheckpoint hands the engine loop any pending mid-run checkpoint
// request at the boundary before `step`, and captures the periodic
// auto-checkpoint when one is configured. Non-blocking and
// allocation-free when nobody is asking and auto-checkpointing is off.
// The returned error is non-nil only when the auto-checkpoint capture or
// sink failed — which stops the run.
func (j *Job) serviceCheckpoint(step int) error {
	select {
	case reply := <-j.ckptCh:
		r := j.r0()
		ck, err := captureCheckpoint(r, j.policy, step)
		// Reply before the event so a panicking observer cannot strand a
		// successfully captured checkpoint.
		reply <- ckptReply{ck, err}
		if err == nil && r.obs != nil {
			// Only mid-run captures emit an event: this runs on the
			// training goroutine, keeping the Observer single-goroutine
			// contract (post-run captures run on the requester's).
			r.obs.OnEvent(CheckpointEvent{Step: step, Workers: len(ck.Hosted)})
		}
	default:
	}
	if j.autoEvery > 0 && step > 0 && step%j.autoEvery == 0 {
		r := j.r0()
		ck, err := captureCheckpoint(r, j.policy, step)
		if err != nil {
			return fmt.Errorf("train: auto-checkpoint at step %d: %w", step, err)
		}
		if j.autoSink != nil {
			if err := j.autoSink(step, ck); err != nil {
				return fmt.Errorf("train: auto-checkpoint sink at step %d: %w", step, err)
			}
		}
		if r.obs != nil {
			r.obs.OnEvent(CheckpointEvent{Step: step, Workers: len(ck.Hosted)})
		}
	}
	return nil
}

// awaitRejoin blocks until rank 0 streams this rank's state transfer for
// its next scripted join event, restores it, and aligns with the
// survivors at the join barrier. It returns the step to re-enter the
// loop at, ok=false when the plan holds no pending join for this rank
// (permanent departure), or the first transfer/restore error.
//
// The wait is unbounded by design: the join boundary may be many steps
// away. While waiting, the rank's heartbeat beacon (if started) keeps
// running, so rank 0's liveness monitor does not promote it to suspect.
func (j *Job) awaitRejoin(r *runner) (start int, ok bool, err error) {
	m := r.memb
	if m == nil || m.mesh == nil || m.plan == nil {
		return 0, false, nil
	}
	self := m.mesh.Rank()
	joinIdx := -1
	for i := m.idx; i < len(m.plan.Events); i++ {
		if m.plan.Events[i].Join && m.plan.Events[i].Rank == self {
			joinIdx = i
			break
		}
	}
	if joinIdx < 0 {
		return 0, false, nil
	}
	blob, berr := m.mesh.RecvBlob(0)
	if berr != nil {
		return 0, false, berr
	}
	ck, derr := DecodeCheckpoint(bytes.NewReader(blob))
	if derr != nil {
		return 0, false, derr
	}
	// Replay the transitions this rank missed — other ranks' departures
	// and readmissions, and its own readmission — so its view and
	// adoption overlay agree with the survivors' before the barrier.
	r.replayStructural(func(i int, _ MemberEvent) bool { return i <= joinIdx })
	start, rerr := restoreCheckpoint(r, j.policy, ck)
	if rerr != nil {
		return 0, false, rerr
	}
	if r.obs != nil {
		r.obs.OnEvent(RecoveryEvent{Step: start, Workers: len(ck.Hosted)})
	}
	if berr := r.cl.Barrier(r.viewCost()); berr != nil {
		return 0, false, berr
	}
	return start, true, nil
}

// r0 returns the runner during an in-flight run.
func (j *Job) r0() *runner {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.r
}

// capturePanic runs fn, converting a panic into an error: construction
// and Init-hook panics ("train: FedAvg C must be in (0, 1]") are ordinary
// errors on the Job API.
func capturePanic(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("%v", p)
		}
	}()
	fn()
	return nil
}
