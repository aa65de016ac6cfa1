package train

import (
	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/gradstat"
	"selsync/internal/nn"
	"selsync/internal/simnet"
	"selsync/internal/tensor"
)

// runner holds the shared mechanics of every training algorithm: the
// cluster, per-worker samplers over the configured partitions, optional
// data-injection state, the evaluation replica, and result bookkeeping.
//
// On a multi-process fabric the runner is SPMD: every rank executes the
// same loop over its hosted workers, meeting the other ranks at the
// cluster's collectives (aggregation, flags, clock barriers). All
// rank-invariant state — datasets, partitions, injection pools, the
// learning-rate schedule, evaluation — is recomputed identically on every
// rank from the shared seed, so control flow (sync votes, early stopping)
// never needs a broadcast and the per-rank Results agree bit for bit.
type runner struct {
	cfg  Config
	cl   *cluster.Cluster
	spec nn.ModelSpec
	res  *Result

	samplers []*data.Sampler
	parts    [][]int
	perBatch int // per-worker examples per step (b, or b′ under injection)

	inj        *data.Injection
	injCursors []int
	injRNG     *tensor.RNG

	// eval evaluates on the test set (eval.go); its first replica's
	// parameter vector receives the across-replica mean in place. evalFn is
	// the stored closure that lets a pool goroutine join an evaluation.
	eval     *evaluator
	evalFn   func(*cluster.Worker)
	gradFlat tensor.Vector
	// Per-worker batch buffers reused across steps (workers touch only
	// their own slot, so computeGrads stays race-free). batches holds the
	// per-step dataset indices, backed by batchIdx's per-worker buffers.
	// computeFn and wholeFn are persistent closures, so a steady-state step
	// allocates nothing; plan, lrNow and work are their inputs, set by the
	// engine before each dispatch: what the policy declared about the step,
	// its learning rate, and what each worker does with every finished block
	// of its gradient (blocks.go) — behind the backward pass in computeFn,
	// over the whole arena in wholeFn.
	batchX      []*tensor.Matrix
	batchLabels [][]int
	batches     [][]int
	batchIdx    [][]int
	plan        StepPlan
	lrNow       float64
	work        blockWork
	computeFn   func(*cluster.Worker)
	wholeFn     func(*cluster.Worker)
	snapSteps   map[int]bool

	// blocks is the per-worker block state, indexed by worker id, and
	// paramOffs the arena offset of each parameter (Dim last).
	blocks    []workerBlocks
	paramOffs []int

	bestMetric float64
	haveBest   bool
	bestStep   int
	sinceBest  int
	stop       bool

	// diagTracker smooths the gradient-norm series trackDelta records (the
	// Fig. 5 diagnostic for BSP/local-SGD regimes). It is deliberately
	// separate from worker 0's voting tracker: the TrackDeltas flag is pure
	// observability and must never perturb a SelSync phase's votes (which
	// matters once hybrid policies chain BSP warmup into SelSync). Nil when
	// TrackDeltas is off or this rank does not host worker 0.
	diagTracker *gradstat.Tracker

	// memb is the run's elastic-membership state; nil on a non-elastic
	// run, where every membership hook is skipped at zero cost.
	memb *membState

	stepsPerEpoch int
	losses        []float64

	// obs is the Job's event observer (nil without one: the loops build
	// no events). done is the Job's cancellation channel (nil under an
	// uncancellable context); the step and event loops poll it at their
	// boundaries.
	obs  Observer
	done <-chan struct{}

	// ferr is the first fabric error the run hit. Once set, the runner is
	// broken: collective reads (the run clock) fall back to rank-local
	// state so finish() can still assemble a partial Result without
	// touching the dead fabric.
	ferr error
}

// setBroken records the run's first fabric error.
func (r *runner) setBroken(err error) {
	if r.ferr == nil {
		r.ferr = err
	}
}

// fail marks the runner broken (clock reads fall back to rank-local state)
// and emits the FaultEvent, nil-check guarded like every event.
func (r *runner) fail(step int, err error) error {
	r.setBroken(err)
	if r.obs != nil {
		r.obs.OnEvent(FaultEvent{Step: step, Err: err})
	}
	return err
}

// newRunner builds the cluster and the run's bookkeeping. restore is set
// when the caller overwrites every replica's state before the first step (a
// checkpoint resume, a late join's state transfer): the cluster then builds
// its replicas without drawing initial weights.
func newRunner(cfg Config, method string, restore bool) *runner {
	cfg = cfg.withDefaults()
	if cfg.Train == nil || cfg.Test == nil {
		panic("train: Config.Train and Config.Test are required")
	}
	codec, err := comm.ParseCodec(cfg.Codec)
	if err != nil {
		panic(err)
	}
	evalNet := buildAside(cfg.Model)
	cl := cluster.New(cluster.Config{
		Workers:       cfg.Workers,
		Model:         cfg.Model,
		Restore:       restore,
		Opt:           cfg.Opt,
		Network:       cfg.Network,
		Device:        cfg.Device,
		Seed:          cfg.Seed,
		TrackerWindow: cfg.TrackerWindow,
		TrackerAlpha:  cfg.TrackerAlpha,
		Topology:      cfg.Topology,
		Fabric:        cfg.Fabric,
		Codec:         codec,
	})
	// The structural refusals below (injection, membership) must not leak
	// the cluster's worker pool.
	defer func() {
		if p := recover(); p != nil {
			cl.Close()
			panic(p)
		}
	}()
	r := &runner{
		cfg:  cfg,
		cl:   cl,
		spec: cfg.Model.Spec,
		res: &Result{
			Method:     method,
			Model:      cfg.Model.Spec.Name,
			Perplexity: cfg.Model.Spec.Perplexity,
			LSSR:       0,
			Snapshots:  map[int]Snapshot{},
		},
		gradFlat: tensor.NewVector(cl.Dim()),
		losses:   make([]float64, cfg.Workers),
	}
	if cfg.TrackDeltas && r.cl.LocalWorker(0) != nil {
		// Same smoothing as the workers' voting trackers, but a private
		// instance — see the field comment.
		r.diagTracker = gradstat.NewConfiguredTracker(cfg.TrackerAlpha, cfg.TrackerWindow, cfg.Workers)
	}

	r.perBatch = cfg.Batch
	if cfg.NonIID != nil {
		r.parts = data.NonIIDPartitions(cfg.Train, cfg.Workers, cfg.NonIID.LabelsPerWorker, cfg.Seed^0xBEEF)
		if cfg.NonIID.Injection != nil {
			inj := *cfg.NonIID.Injection
			if err := inj.Validate(); err != nil {
				panic(err)
			}
			r.inj = &inj
			r.perBatch = inj.AdjustedBatch(cfg.Batch, cfg.Workers)
			r.injCursors = make([]int, cfg.Workers)
			r.injRNG = tensor.NewRNG(cfg.Seed ^ 0xF00D)
		}
	} else {
		r.parts = data.Partitions(cfg.Scheme, cfg.Train.N(), cfg.Workers, cfg.Seed^0xBEEF)
	}
	for w := 0; w < cfg.Workers; w++ {
		r.samplers = append(r.samplers, data.NewSampler(r.parts[w], r.perBatch))
	}
	r.memb = newMembState(cfg, cl)
	r.initEval(evalNet())

	r.batches = make([][]int, cfg.Workers)
	r.batchIdx = make([][]int, cfg.Workers)
	if r.memb != nil {
		// Elastic runs re-assign worker blocks mid-flight: every id may
		// become hosted here, so every id gets an index buffer up front.
		for id := range r.batchIdx {
			r.batchIdx[id] = make([]int, 0, r.perBatch)
		}
	} else {
		for _, w := range r.cl.Workers {
			r.batchIdx[w.ID] = make([]int, 0, r.perBatch)
		}
	}
	r.batchX = make([]*tensor.Matrix, cfg.Workers)
	r.batchLabels = make([][]int, cfg.Workers)
	r.computeFn = func(w *cluster.Worker) {
		x, labels := r.cfg.Train.BatchInto(r.batchX[w.ID], r.batchLabels[w.ID], r.batches[w.ID])
		r.batchX[w.ID], r.batchLabels[w.ID] = x, labels
		b := &r.blocks[w.ID]
		b.final = r.cl.Dim()
		loss, _ := w.Model.ComputeGradients(x, labels)
		r.losses[w.ID] = loss
		w.Clock += w.Device.ComputeTime(simnet.StepFlops(r.spec.FlopsPerSample, len(r.batches[w.ID])))
		r.finishBlocks(w, b.final)
	}
	r.initBlocks()

	r.stepsPerEpoch = cfg.Train.N() / (cfg.Workers * cfg.Batch)
	if r.stepsPerEpoch < 1 {
		r.stepsPerEpoch = 1
	}
	r.snapSteps = make(map[int]bool, len(cfg.SnapshotAtSteps))
	for _, s := range cfg.SnapshotAtSteps {
		r.snapSteps[s] = true
	}
	return r
}

func (r *runner) lr(step int) float64 { return r.cfg.Schedule.LR(step) }

// nextBatches fills r.batches with one step's per-worker dataset indices
// (reusing the per-worker index buffers — allocation-free without
// injection) and returns the virtual per-worker cost of the injection
// traffic (0 without injection). Under injection, every worker's batch is
// its own b′ examples plus the shared pool, restoring the effective batch
// to ≈b (Eqn. 3). Only hosted workers' samplers advance — each rank owns
// its workers' batch streams — while the injection pool (which draws from
// every partition) is rebuilt identically on every rank from the shared
// injection RNG.
func (r *runner) nextBatches() (injCost float64) {
	if r.memb != nil {
		// Elastic runs advance every worker's batch stream on every rank —
		// hosted workers materialize indices, the rest skip — so a mid-run
		// re-assignment (adoption, rejoin transfer) resumes each stream at
		// the position an undisturbed run would be at.
		for id, s := range r.samplers {
			if r.cl.LocalWorker(id) != nil {
				r.batches[id] = s.NextInto(r.batchIdx[id])
			} else {
				s.Skip()
			}
		}
	} else {
		for _, w := range r.cl.Workers {
			r.batches[w.ID] = r.samplers[w.ID].NextInto(r.batchIdx[w.ID])
		}
	}
	if r.inj != nil {
		pool := r.inj.BuildPool(r.parts, r.injCursors, r.perBatch, r.injRNG)
		for _, w := range r.cl.Workers {
			// Appending past the index buffer's capacity copies — the
			// buffer itself stays pristine for the next step.
			r.batches[w.ID] = append(r.batches[w.ID], pool...)
		}
		injCost = r.cl.Network.P2P(r.inj.PoolBytes(r.cfg.Train, r.perBatch, r.cl.N()))
	}
	return injCost
}

// computeGrads runs one forward+backward per worker concurrently over
// r.batches, advancing each worker's clock by its modeled compute time.
// Per-worker mean losses land in r.losses. Each worker does r.work on its
// gradient's blocks as the backward pass finishes them.
func (r *runner) computeGrads() {
	r.cl.Each(r.computeFn)
}

// applyLocal applies each worker's own gradient through its own optimizer,
// for a step whose plan did not let computeGrads do it.
func (r *runner) applyLocal() {
	r.work = blockWork{apply: true}
	r.cl.Each(r.wholeFn)
}

// clock returns the run's current virtual time: the MaxClock collective on
// a healthy fabric, the rank-local maximum once the run is broken (a dead
// fabric must never be touched again — finish() reads the clock while
// assembling the partial Result).
func (r *runner) clock() float64 {
	if r.ferr != nil {
		return r.hostedMaxClock()
	}
	m, err := r.cl.MaxClock()
	if err != nil {
		r.setBroken(err)
		return r.hostedMaxClock()
	}
	return m
}

// meanParams reduces the across-replica mean parameter vector into the first
// evaluation replica's arena — where evaluate reads it in place and
// snapshots copy it from — and returns it. The reduction runs through the
// cluster's fabric (a zero-copy pointer walk plus tensor.Average in one
// process, a gather across ranks) and is bit-identical for every rank count.
func (r *runner) meanParams() (tensor.Vector, error) {
	mean := r.eval.reps[0].params
	if err := r.cl.AverageParamsInto(mean); err != nil {
		return nil, err
	}
	return mean, nil
}

// meanGrads writes the across-replica mean gradient vector into r.gradFlat
// and returns it.
func (r *runner) meanGrads() (tensor.Vector, error) {
	if err := r.cl.AverageGradsInto(r.gradFlat); err != nil {
		return nil, err
	}
	return r.gradFlat, nil
}

// maybeSnapshot records global params and mean gradient at configured
// steps.
func (r *runner) maybeSnapshot(step int) error {
	if !r.snapSteps[step] {
		return nil
	}
	mean, err := r.meanParams()
	if err != nil {
		return err
	}
	params := append([]float64(nil), mean...)
	grads, err := r.meanGrads()
	if err != nil {
		return err
	}
	r.res.Snapshots[step] = Snapshot{Step: step, Params: params, Grads: append([]float64(nil), grads...)}
	return nil
}

// maybeEval runs a test evaluation on the eval cadence; it returns true
// when the run should stop (patience exhausted or MaxSteps reached).
// The evaluated model is the across-replica mean — the state the PS would
// serve after a parameter aggregation.
func (r *runner) maybeEval(step int) (bool, error) {
	if err := r.maybeSnapshot(step); err != nil {
		return false, err
	}
	final := step+1 >= r.cfg.MaxSteps
	if (step+1)%r.cfg.EvalEvery == 0 || final {
		if _, err := r.meanParams(); err != nil {
			return false, err
		}
		loss, metric, err := r.evaluate()
		if err != nil {
			return false, err
		}
		r.record(step, loss, metric)
	}
	return final || r.stop, nil
}

func (r *runner) record(step int, loss, metric float64) {
	pt := EvalPoint{
		Step:    step + 1,
		Epoch:   float64(step+1) / float64(r.stepsPerEpoch),
		SimTime: r.clock(),
		Loss:    loss,
		Metric:  metric,
	}
	r.res.History = append(r.res.History, pt)
	best := !r.haveBest || r.res.BetterMetric(metric, r.bestMetric)
	if best {
		r.haveBest = true
		r.bestMetric = metric
		r.bestStep = step + 1
		r.res.SimTimeAtBest = pt.SimTime
		r.sinceBest = 0
	} else {
		r.sinceBest++
		if r.cfg.Patience > 0 && r.sinceBest >= r.cfg.Patience {
			r.stop = true
		}
	}
	if r.obs != nil {
		r.obs.OnEvent(EvalEvent{
			Step:    pt.Step,
			Epoch:   pt.Epoch,
			SimTime: pt.SimTime,
			Loss:    pt.Loss,
			Metric:  pt.Metric,
			Best:    best,
		})
	}
}

// hostedMeanLoss returns the mean of the hosted workers' last step losses
// (the rank-local training-loss signal StepEvent carries).
func (r *runner) hostedMeanLoss() float64 {
	var s float64
	for _, w := range r.cl.Workers {
		s += r.losses[w.ID]
	}
	return s / float64(len(r.cl.Workers))
}

// hostedMaxClock returns the latest hosted worker clock — a rank-local
// read; observation must never trigger the MaxClock collective, which
// would desynchronize ranks that do not share an observer.
func (r *runner) hostedMaxClock() float64 {
	var m float64
	for _, w := range r.cl.Workers {
		if w.Clock > m {
			m = w.Clock
		}
	}
	return m
}

// cancelled reports whether the run's context is done — polled by the
// event loops at their boundaries (nil channel without a cancellable
// context: never ready, zero cost).
func (r *runner) cancelled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// trackDelta feeds a gradient norm into the diagnostics tracker and records
// the smoothed Δ when delta tracking is on (the Fig. 5 series for BSP and
// local-SGD regimes). On a multi-process run only the rank hosting worker 0
// records deltas; the votes of worker 0's own tracker are never touched.
func (r *runner) trackDelta(norm float64) {
	if r.diagTracker == nil {
		return
	}
	r.res.Deltas = append(r.res.Deltas, r.diagTracker.ObserveGradNorm(norm))
}

// finish computes the aggregate counters from the hosted workers, stops
// the cluster's worker pool, and returns the result. The per-worker step
// counters of the step loop are rank-invariant (sync decisions are global),
// so averaging over the hosted block equals averaging over all N workers —
// the multi-process Result matches the loopback one exactly.
func (r *runner) finish() *Result {
	var steps, sync, local int
	for _, w := range r.cl.Workers {
		steps += w.Steps
		sync += w.SyncSteps
		local += w.LocalSteps
	}
	n := r.cl.LocalN()
	return r.finishCounts(steps/n, sync/n, local/n)
}

// finishCounts fills the aggregate fields from explicit per-worker step
// counts (an event loop's workers advance unevenly, so it reports the mean
// over all N itself) and releases the cluster.
func (r *runner) finishCounts(steps, sync, local int) *Result {
	r.res.Steps = steps
	r.res.SyncSteps = sync
	r.res.LocalSteps = local
	if r.res.SyncSteps+r.res.LocalSteps > 0 {
		r.res.LSSR = float64(r.res.LocalSteps) / float64(r.res.LocalSteps+r.res.SyncSteps)
	}
	r.res.SimTime = r.clock()
	r.res.BestMetric = r.bestMetric
	r.res.BestStep = r.bestStep
	if len(r.res.History) > 0 {
		r.res.FinalMetric = r.res.History[len(r.res.History)-1].Metric
	}
	r.cl.Close()
	return r.res
}
