// Package cluster builds the data-parallel training cluster: N worker
// replicas around a central parameter server, in the image of the paper's
// 16-container V100 testbed. Workers hold real model replicas and compute
// real gradients (in parallel, on a persistent per-worker goroutine pool);
// their clocks are virtual and advance by the cost-model times from
// internal/simnet. The parameter server owns the flat global state and the
// two aggregation modes the paper compares (parameter vs gradient
// aggregation, §III-C).
//
// Every synchronization primitive — broadcast, parameter/gradient
// aggregation, the SelSync flags allgather, the clock barrier — executes
// through an internal/comm Fabric, which is always a comm.Mesh. With the
// default one-rank mesh (comm.NewLoopback) the whole cluster lives in one
// process and the rounds are direct shared-memory kernels, allocation-free
// in steady state. Over TCP each OS process hosts a contiguous block of the
// workers and the same rounds become real wire exchanges: a dense
// aggregation relays the running sum from rank to rank, each folding its own
// workers in; a compressed one sends every compressed contribution to every
// rank, and each rank folds them and compresses the mean itself, the
// parameter server's downlink replicated on every rank; a dense elastic one
// gathers at rank 0, which plays the parameter server. Either way every rank
// ends the round holding the same global state. Because the mesh reduces in worker-id order with
// the same kernels whatever the rank count, a multi-process run reproduces
// the single-process results bit for bit.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"selsync/internal/comm"
	"selsync/internal/gradstat"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/simnet"
	"selsync/internal/tensor"
)

// AggMode selects what the parameter server aggregates during a
// synchronization phase.
type AggMode int

const (
	// ParamAgg averages model parameters and broadcasts them, forcing all
	// replicas onto one consistent state (SelSync's recommended mode).
	ParamAgg AggMode = iota
	// GradAgg averages gradients and lets every worker apply the averaged
	// gradient through its own optimizer; replicas that have diverged stay
	// diverged.
	GradAgg
)

// String implements fmt.Stringer.
func (m AggMode) String() string {
	switch m {
	case ParamAgg:
		return "ParamAgg"
	case GradAgg:
		return "GradAgg"
	default:
		return fmt.Sprintf("AggMode(%d)", int(m))
	}
}

// OptBuilder constructs a fresh optimizer over a replica's parameters.
// Each worker owns private optimizer state, as on the real testbed. New
// builds its replicas concurrently, so an OptBuilder may be called from
// several goroutines at once, each with its own replica's parameters.
type OptBuilder func(ps []*nn.Param) opt.Optimizer

// Topology selects how synchronization rounds are priced on the simulated
// fabric. The paper builds on a central PS but notes (§III-E) that the
// push/pull pair "can be easily swapped for an AllReduce collective";
// Ring prices rounds with the bandwidth-optimal ring collective instead.
type Topology int

const (
	// PS routes synchronization through the central parameter server.
	PS Topology = iota
	// Ring prices synchronization as a ring allreduce among workers.
	Ring
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case PS:
		return "PS"
	case Ring:
		return "Ring"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Config describes a cluster to build.
type Config struct {
	Workers int
	Model   nn.Factory
	// Restore is set by a caller that overwrites every hosted replica's
	// parameters and layer streams, and the PS state, right after New (a
	// checkpoint resume): no replica draws initial weights.
	Restore bool
	Opt     OptBuilder
	Network *simnet.Network
	// Device builds the accelerator for worker id; nil means identical
	// V100s (seeded per worker). Like Opt it may be called concurrently,
	// once per hosted id.
	Device func(id int) *simnet.Device
	// Seed drives model initialization and all stochastic machinery.
	Seed uint64
	// TrackerWindow / TrackerAlpha configure the Δ(g_i) trackers; zero
	// values select the paper defaults (window 25, alpha N/100).
	TrackerWindow int
	TrackerAlpha  float64
	// Topology prices synchronization rounds (PS by default).
	Topology Topology
	// Fabric is the communication backend synchronization rounds execute
	// through. Nil selects the in-process loopback over all Workers. A
	// multi-process fabric (comm.Mesh) makes this cluster instance host
	// only the fabric's local worker block; Workers must then equal the
	// fabric's global worker count.
	Fabric comm.Fabric
	// Codec selects the wire payload codec for synchronization rounds
	// (top-k sparsification, linear quantization, partial-parameter
	// sharing), installed on the fabric at construction. The zero value is
	// the identity codec: rounds are dense, bit-identical to every prior
	// release. A lossy codec compresses every aggregation message with
	// per-worker error feedback.
	Codec comm.Codec
}

// Worker is one training replica hosted by this process.
type Worker struct {
	ID        int // global worker id
	Model     nn.Network
	Optimizer opt.Optimizer
	Device    *simnet.Device
	Tracker   *gradstat.Tracker
	RNG       *tensor.RNG

	// Clock is the worker's virtual time in seconds.
	Clock float64
	// Steps counts completed training iterations; LocalSteps and
	// SyncSteps split them by update type for the LSSR metric.
	Steps      int
	LocalSteps int
	SyncSteps  int

	// net is Model's concrete type — every replica comes from an nn.Factory
	// — and arena its contiguous parameter/gradient storage.
	net   *nn.FeedForwardNet
	arena *nn.Arena
}

// FlatParams returns the worker's parameters as one flat vector: a
// zero-copy view of the replica's live arena storage. Callers must treat it
// as read-only and invalidated by the worker's next training step.
func (w *Worker) FlatParams() tensor.Vector { return w.arena.Data }

// FlatGrads returns the worker's gradients as one flat vector, with the
// same zero-copy view semantics as FlatParams.
func (w *Worker) FlatGrads() tensor.Vector { return w.arena.Grad }

// SetParams overwrites the replica's parameters — a single SIMD copy.
func (w *Worker) SetParams(v tensor.Vector) { w.arena.Data.CopyFrom(v) }

// SetGrads overwrites the replica's gradient accumulators.
func (w *Worker) SetGrads(v tensor.Vector) { w.arena.Grad.CopyFrom(v) }

// LayerRNG returns the states of the RNG streams the replica's layers own
// (Dropout masks), nil when it has none. Together with FlatParams it is the
// replica's whole model state: initial-state copies, elastic
// re-materialization and checkpoints carry both.
func (w *Worker) LayerRNG() []uint64 { return w.net.LayerRNG() }

// SetLayerRNG overwrites the replica's layer streams with states captured
// by LayerRNG on a replica of the same model.
func (w *Worker) SetLayerRNG(states []uint64) error { return w.net.SetLayerRNG(states) }

// LSSR returns the worker's local-to-synchronous step ratio (paper Eqn. 4).
func (w *Worker) LSSR() float64 {
	total := w.LocalSteps + w.SyncSteps
	if total == 0 {
		return 0
	}
	return float64(w.LocalSteps) / float64(total)
}

// ParameterServer holds the flat global model state. Traffic accounting
// lives in the comm fabric's ledger: the counters here are views of it, so
// loopback and TCP runs report identical logical message and byte counts.
type ParameterServer struct {
	Global tensor.Vector
	stats  *comm.Stats
}

// BytesRecv returns the wire bytes pushed into the PS (codec-exact sizes).
func (ps *ParameterServer) BytesRecv() int64 { return ps.stats.Bytes.Recv }

// BytesSent returns the wire bytes pulled out of the PS.
func (ps *ParameterServer) BytesSent() int64 { return ps.stats.Bytes.Sent }

// Cluster is the assembled system. Workers holds the replicas hosted by
// this process — all N of them on a one-rank fabric, a contiguous block
// on a multi-process one.
type Cluster struct {
	Workers  []*Worker
	PS       *ParameterServer
	Network  *simnet.Network
	Spec     nn.ModelSpec
	Topology Topology

	fabric    comm.Fabric
	ownFabric bool
	firstID   int
	dim       int
	allIDs    []int
	// refBuf holds the pre-round global state a lossy codec's parameter
	// path encodes deltas against; nil under the identity codec, which
	// carries values.
	refBuf tensor.Vector
	// cfg and deviceFor are retained so elastic membership can re-derive
	// replicas deterministically (AdoptWorkers / ResetWorkers).
	cfg       Config
	deviceFor func(id int) *simnet.Device
	// nbase is the size of the static hosted block; adopted replicas (a
	// dead rank's workers re-materialized on rank 0) live past it in
	// Workers and in the adopted map.
	nbase   int
	adopted map[int]*Worker
	// setup is run on every replica the cluster builds after SetWorkerSetup.
	setup func(*Worker)
	// Stored view closures and per-local-worker arena slots keep the
	// steady-state sync round allocation-free.
	paramView  func(id int) tensor.Vector
	gradView   func(id int) tensor.Vector
	paramSlots []tensor.Vector

	// Persistent per-worker goroutine pool behind Each, and how many times
	// Each has run.
	eachCh     []chan func(*Worker)
	eachWG     sync.WaitGroup
	dispatches int
	closeOnce  sync.Once
}

// New builds the cluster: the first hosted worker draws the model's initial
// state from the seed, every other hosted worker is built without drawing
// and copies it — arena and layer streams — so replicas start bit-identical
// (the pullFromPS of Alg. 1 line 3), and the PS snapshots that state as the
// initial global model. Under cfg.Restore nobody draws. On a multi-process
// fabric only the locally hosted workers materialize (one draw per rank);
// per-worker RNG streams are split for every global id so hosted workers
// draw the same streams on every rank layout.
func New(cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: need at least one worker")
	}
	if cfg.Opt == nil {
		panic("cluster: Config.Opt is required")
	}
	if cfg.Network == nil {
		cfg.Network = simnet.DefaultNetwork()
	}
	deviceFor := cfg.Device
	if deviceFor == nil {
		deviceFor = func(id int) *simnet.Device {
			return simnet.NewV100(cfg.Seed ^ (0xD0 + uint64(id)))
		}
	}
	fabric := cfg.Fabric
	ownFabric := false
	if fabric == nil {
		fabric = comm.NewLoopback(cfg.Workers)
		ownFabric = true
	}
	if fabric.Workers() != cfg.Workers {
		panic(fmt.Sprintf("cluster: config has %d workers but fabric has %d", cfg.Workers, fabric.Workers()))
	}

	c := &Cluster{
		Network:   cfg.Network,
		Spec:      cfg.Model.Spec,
		Topology:  cfg.Topology,
		fabric:    fabric,
		ownFabric: ownFabric,
		firstID:   fabric.LocalWorkers()[0],
		cfg:       cfg,
		deviceFor: deviceFor,
	}
	seedRNG := tensor.NewRNG(cfg.Seed)
	var ids []int
	var rngs []*tensor.RNG
	for id := 0; id < cfg.Workers; id++ {
		rng := seedRNG.Split() // advance the stream for every global id
		if fabric.Hosts(id) {
			ids, rngs = append(ids, id), append(rngs, rng)
		}
	}
	// The replicas share nothing until copyInitialState, so they are built
	// concurrently: the first one's initial-state draw runs beside the
	// others' allocations.
	c.Workers = make([]*Worker, len(ids))
	parallel(len(ids), func(i int) {
		var draw *tensor.RNG
		if i == 0 && !cfg.Restore {
			draw = tensor.NewRNG(cfg.Seed) // the one draw; the rest copy it below
		}
		c.Workers[i] = c.newWorker(ids[i], cfg.Model.Build(draw), rngs[i])
	})
	c.nbase = len(c.Workers)
	c.dim = len(c.Workers[0].FlatParams())
	c.allIDs = make([]int, cfg.Workers)
	for i := range c.allIDs {
		c.allIDs[i] = i
	}
	c.paramView = func(id int) tensor.Vector { return c.workerByID(id).FlatParams() }
	c.gradView = func(id int) tensor.Vector { return c.workerByID(id).FlatGrads() }
	c.refreshSlots()
	if !cfg.Restore {
		c.copyInitialState()
	}
	c.PS = &ParameterServer{Global: c.Workers[0].FlatParams().Clone(), stats: fabric.Stats()}
	if !cfg.Codec.Nop() {
		// Negotiation failures (mismatched codecs across ranks, elastic
		// membership) are configuration bugs of the same class as the
		// worker-count mismatch above.
		if err := fabric.SetCodec(cfg.Codec); err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
		c.refBuf = tensor.NewVector(c.dim)
	}
	c.startPool()
	return c
}

// parallel runs fn(0), …, fn(n−1) and returns once every call has. The
// caller runs fn(0), then claims the calls no helper goroutine has taken
// yet, so it never waits on a helper that has not got a core: on a busy
// process the calls simply run one after another on the caller, and a
// helper that starts late finds nothing left and exits. A panic in a call
// is re-raised on the caller after all calls have returned (the lowest
// index's, when several panic).
func parallel(n int, fn func(i int)) {
	panics := make([]any, n)
	var next atomic.Int64 // the next unclaimed call; 0 is the caller's
	next.Store(1)
	var done sync.WaitGroup
	done.Add(n)
	call := func(i int) {
		defer done.Done()
		defer func() { panics[i] = recover() }()
		fn(i)
	}
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			call(i)
		}
	}
	for range n - 1 {
		go claim()
	}
	if n > 0 {
		call(0)
	}
	claim()
	done.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// newWorker wraps a built replica for global worker id with the per-worker
// machinery every replica gets — optimizer, the id's device, a fresh
// tracker — and the given RNG stream.
func (c *Cluster) newWorker(id int, model *nn.FeedForwardNet, rng *tensor.RNG) *Worker {
	return &Worker{
		ID:        id,
		Model:     model,
		net:       model,
		arena:     model.Arena(),
		Optimizer: c.cfg.Opt(model.Params()),
		Device:    c.deviceFor(id),
		Tracker:   gradstat.NewConfiguredTracker(c.cfg.TrackerAlpha, c.cfg.TrackerWindow, c.cfg.Workers),
		RNG:       rng,
	}
}

// SetWorkerSetup runs fn on every hosted replica now and on every replica
// the cluster builds from then on (elastic adoption and in-place reset), so
// per-replica wiring a caller installs — the training runner's backward-pass
// hook — follows a worker onto its rebuilt replica. fn runs on the calling
// goroutine, before the replica's first step.
func (c *Cluster) SetWorkerSetup(fn func(*Worker)) {
	c.setup = fn
	for _, w := range c.Workers {
		fn(w)
	}
}

// copyInitialState fills every hosted replica past the first with the
// first's drawn state: one CopyAll of its arena, then its layer streams.
func (c *Cluster) copyInitialState() {
	tensor.CopyAll(c.paramSlots[1:], c.paramSlots[0])
	streams := c.Workers[0].LayerRNG()
	for _, w := range c.Workers[1:] {
		if err := w.SetLayerRNG(streams); err != nil {
			panic(err) // replicas of one factory own the same streams
		}
	}
}

// Codec returns the active payload codec (the identity codec when none was
// configured).
func (c *Cluster) Codec() comm.Codec { return c.cfg.Codec }

// CodecSnapshot captures the codec's error-feedback state — this rank's
// hosted workers' residuals and its replica of the downlink one (nil under
// the identity codec, which has none) — so a checkpoint resume can continue
// bit-identically.
func (c *Cluster) CodecSnapshot() *comm.CodecSnapshot { return c.fabric.CodecSnapshot() }

// RestoreCodecSnapshot reinstates error-feedback state captured by
// CodecSnapshot. A nil snapshot is a no-op (checkpoints from runs without a
// lossy codec); one captured under a different codec is refused.
func (c *Cluster) RestoreCodecSnapshot(s *comm.CodecSnapshot) error {
	if s == nil {
		return nil
	}
	if err := c.fabric.RestoreCodecSnapshot(s); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// workerByID maps a hosted global worker id to its replica: the static
// block by offset, adopted orphans through the overlay map.
func (c *Cluster) workerByID(id int) *Worker {
	if i := id - c.firstID; i >= 0 && i < c.nbase {
		return c.Workers[i]
	}
	return c.adopted[id]
}

// LocalWorker returns the replica for a global worker id, or nil when this
// rank does not host it.
func (c *Cluster) LocalWorker(id int) *Worker {
	if !c.fabric.Hosts(id) {
		return nil
	}
	return c.workerByID(id)
}

// N returns the global worker count.
func (c *Cluster) N() int { return c.fabric.Workers() }

// LocalN returns how many workers this process hosts.
func (c *Cluster) LocalN() int { return len(c.Workers) }

// Rank returns this process's rank on the fabric (0 in a single process).
func (c *Cluster) Rank() int { return c.fabric.Rank() }

// Procs returns the fabric's process count (1 in a single process).
func (c *Cluster) Procs() int { return c.fabric.Procs() }

// Fabric returns the communication backend.
func (c *Cluster) Fabric() comm.Fabric { return c.fabric }

// Dim returns the flat parameter dimension.
func (c *Cluster) Dim() int { return c.dim }

// AllWorkerIDs returns the global worker ids 0..N-1. The slice is shared —
// treat it as read-only.
func (c *Cluster) AllWorkerIDs() []int { return c.allIDs }

// startPool launches one persistent goroutine per hosted worker — the
// start of the pool's start/step/stop protocol. Each call is a step:
// the closure fans out over the resident goroutines instead of spawning
// fresh ones. Close stops them.
func (c *Cluster) startPool() {
	if len(c.Workers) == 1 {
		return // single hosted worker: Each runs inline
	}
	c.eachCh = make([]chan func(*Worker), len(c.Workers))
	for i, w := range c.Workers {
		ch := make(chan func(*Worker), 1)
		c.eachCh[i] = ch
		go func(w *Worker, ch chan func(*Worker)) {
			for fn := range ch {
				fn(w)
				c.eachWG.Done()
			}
		}(w, ch)
	}
}

// Each runs fn for every hosted worker concurrently on the persistent
// worker pool and waits for all to finish. Workers touch disjoint state,
// so fn needs no locking as long as it only accesses its own worker.
func (c *Cluster) Each(fn func(w *Worker)) {
	c.dispatches++
	if len(c.Workers) == 1 {
		fn(c.Workers[0])
		return
	}
	c.eachWG.Add(len(c.Workers))
	for _, ch := range c.eachCh {
		ch <- fn
	}
	c.eachWG.Wait()
}

// Dispatches returns how many times Each has run: the pool wake-ups a run
// has paid for, a count that depends on the step sequence alone.
func (c *Cluster) Dispatches() int { return c.dispatches }

// Close stops the worker pool and, when the cluster built its own loopback
// fabric, releases it. Externally supplied fabrics (TCP meshes) are closed
// by their creators. Safe to call more than once; the cluster must not be
// used afterwards.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, ch := range c.eachCh {
			close(ch)
		}
		if c.ownFabric {
			c.fabric.Close()
		}
	})
}

// stopPool drains the persistent worker goroutines before the hosted
// worker set changes shape; startPool relaunches over the new set.
func (c *Cluster) stopPool() {
	for _, ch := range c.eachCh {
		close(ch)
	}
	c.eachCh = nil
}

// refreshSlots rebuilds the fan-out arena slots over the current hosted
// worker set.
func (c *Cluster) refreshSlots() {
	c.paramSlots = c.paramSlots[:0]
	for _, w := range c.Workers {
		c.paramSlots = append(c.paramSlots, w.arena.Data)
	}
}

// rejoinRNG derives the RNG stream of a re-materialized replica. The
// stream is keyed by (seed, id, view epoch) alone, so rank 0's adoption
// and the loopback fabric's in-place reset — and any repeat of the same
// scripted membership plan — draw bit-identical randomness.
func rejoinRNG(seed uint64, id int, epoch uint64) *tensor.RNG {
	return tensor.NewRNG(seed ^ 0x9E3779B97F4A7C15 ^ (uint64(id)+1)<<32 ^ epoch)
}

// rebuildWorker constructs a fresh replica for a global worker id under
// the deterministic reconstruction recipe: a network built without drawing,
// parameters from the PS global state (the last synchronized model — the
// only rank-invariant snapshot), fresh optimizer and tracker state, the
// same device the id always gets, an epoch-keyed RNG stream, and layer
// streams and step counters copied from worker 0 (the first hosted worker
// on rank 0 and loopback, the only places this runs). Clock starts at
// zero; the caller's post-transition barrier aligns it.
func (c *Cluster) rebuildWorker(id int, epoch uint64) *Worker {
	w := c.newWorker(id, c.cfg.Model.Build(nil), rejoinRNG(c.cfg.Seed, id, epoch))
	w.SetParams(c.PS.Global)
	ref := c.Workers[0]
	if err := w.SetLayerRNG(ref.LayerRNG()); err != nil {
		panic(err) // replicas of one factory own the same streams
	}
	w.Steps, w.LocalSteps, w.SyncSteps = ref.Steps, ref.LocalSteps, ref.SyncSteps
	if c.setup != nil {
		c.setup(w)
	}
	return w
}

// AdoptWorkers materializes replicas for a dead rank's orphaned worker
// ids on this rank (rank 0 is the adopter by protocol). Ids already
// adopted are left alone. The worker pool and fan-out slots re-form over
// the grown set.
func (c *Cluster) AdoptWorkers(ids []int, epoch uint64) {
	if len(ids) == 0 {
		return
	}
	c.stopPool()
	if c.adopted == nil {
		c.adopted = make(map[int]*Worker)
	}
	for _, id := range ids {
		if _, ok := c.adopted[id]; ok {
			continue
		}
		w := c.rebuildWorker(id, epoch)
		c.adopted[id] = w
		c.Workers = append(c.Workers, w)
	}
	c.refreshSlots()
	c.startPool()
}

// ReleaseWorkers drops previously adopted replicas — their home rank
// rejoined and hosts them again after the state transfer.
func (c *Cluster) ReleaseWorkers(ids []int) {
	if len(ids) == 0 || c.adopted == nil {
		return
	}
	c.stopPool()
	for _, id := range ids {
		delete(c.adopted, id)
	}
	kept := c.Workers[:c.nbase]
	for _, w := range c.Workers[c.nbase:] {
		if _, ok := c.adopted[w.ID]; ok {
			kept = append(kept, w)
		}
	}
	c.Workers = kept
	c.refreshSlots()
	c.startPool()
}

// ResetWorkers rebuilds hosted replicas in place with the reconstruction
// recipe — the loopback fabric's mirror of a planned departure, where the
// "dead" rank's workers live in this same process: destroying and
// re-deriving them keeps the arithmetic bit-identical to a distributed
// run in which rank 0 adopts them.
func (c *Cluster) ResetWorkers(ids []int, epoch uint64) {
	if len(ids) == 0 {
		return
	}
	c.stopPool()
	for _, id := range ids {
		i := id - c.firstID
		if i < 0 || i >= c.nbase {
			continue
		}
		c.Workers[i] = c.rebuildWorker(id, epoch)
	}
	c.refreshSlots()
	c.startPool()
}

// Broadcast overwrites every replica's parameters with the PS global state:
// the fabric's fan-out, one chunk-parallel copy straight into the replicas'
// live storage. The pulls are on the ledger already — the reduce round that
// produced the global state accounts one per worker.
func (c *Cluster) Broadcast() {
	c.fabric.FanOut(c.paramSlots, c.PS.Global)
}

// paramRef returns the reference a parameter round's messages are deltas
// against — a copy of the pre-round global state — under a lossy codec, nil
// under the identity codec.
func (c *Cluster) paramRef() tensor.Vector {
	if c.refBuf != nil {
		c.refBuf.CopyFrom(c.PS.Global)
	}
	return c.refBuf
}

// AggregateParams averages the replicas' parameters into the PS global
// state and broadcasts the result — one full parameter-aggregation round
// (push all, pull all) through the fabric. A transport failure surfaces as
// the fabric's typed error (comm.ErrPeerDown / comm.ErrTimeout wrapped in
// a *comm.PeerError), leaving the fabric broken.
//
// Under a lossy codec the round carries parameter deltas against the
// pre-round global state: selective sharing and error feedback operate on
// what changed since the last synchronization, and coordinates the codec
// leaves out stay exactly at the old global value.
func (c *Cluster) AggregateParams() error {
	if err := c.fabric.ReduceMeanCodec(c.PS.Global, c.paramRef(), c.allIDs, c.paramView); err != nil {
		return fmt.Errorf("cluster: aggregate params: %w", err)
	}
	c.Broadcast()
	return nil
}

// AggregateGrads averages the replicas' gradients into dst (one
// gradient-aggregation round: push gradients, pull the mean; the mean is
// left on every rank by the fabric). Callers apply dst through each
// worker's optimizer. A lossy codec compresses the gradients themselves (no
// reference vector — gradients are already deltas); the ledger records the
// codec-exact wire bytes either way.
func (c *Cluster) AggregateGrads(dst tensor.Vector) error {
	if err := c.fabric.ReduceMeanCodec(dst, nil, c.allIDs, c.gradView); err != nil {
		return fmt.Errorf("cluster: aggregate grads: %w", err)
	}
	return nil
}

// ReduceParamsSubset averages the parameters of the given workers into the
// PS global state (FedAvg's partial participation: only ids push, and the
// round delivers — and accounts — the new global to every worker; Broadcast
// then copies it into the replicas).
func (c *Cluster) ReduceParamsSubset(ids []int) error {
	if err := c.fabric.ReduceMeanCodec(c.PS.Global, c.paramRef(), ids, c.paramView); err != nil {
		return fmt.Errorf("cluster: reduce params subset: %w", err)
	}
	return nil
}

// AverageParamsInto writes the across-replica mean parameter vector into
// dst on every rank — a diagnostic read (evaluation, snapshots), not PS
// traffic, so it leaves the ledger untouched.
func (c *Cluster) AverageParamsInto(dst tensor.Vector) error {
	return c.fabric.ReduceMean(dst, c.allIDs, c.paramView)
}

// AverageGradsInto writes the across-replica mean gradient vector into dst
// on every rank without touching the ledger.
func (c *Cluster) AverageGradsInto(dst tensor.Vector) error {
	return c.fabric.ReduceMean(dst, c.allIDs, c.gradView)
}

// AccountPush records n worker→PS model-sized messages that bypassed the
// collective entry points (SSP's per-event pushes).
func (c *Cluster) AccountPush(n int) { c.fabric.AccountPush(n, c.dim) }

// AccountPull records n PS→worker model-sized messages.
func (c *Cluster) AccountPull(n int) { c.fabric.AccountPull(n, c.dim) }

// ExchangeFlags runs SelSync's one-bit significance allgather through the
// fabric: on entry flags[id] is set for hosted ids, on return every
// worker's vote is present on every rank. It reports whether any worker
// voted to synchronize.
func (c *Cluster) ExchangeFlags(flags []bool) (bool, error) {
	if err := c.fabric.AllGatherFlags(flags); err != nil {
		return false, fmt.Errorf("cluster: exchange flags: %w", err)
	}
	for _, f := range flags {
		if f {
			return true, nil
		}
	}
	return false, nil
}

// LocalMaxClock returns the latest hosted worker clock on this rank only —
// no collective, so it stays usable after a fabric failure.
func (c *Cluster) LocalMaxClock() float64 {
	var m float64
	for _, w := range c.Workers {
		if w.Clock > m {
			m = w.Clock
		}
	}
	return m
}

// MaxClock returns the latest worker clock across all ranks — the
// cluster's wall time, since a run ends when its slowest worker does. On a
// multi-process fabric this is a collective and must be called by every
// rank at the same point.
func (c *Cluster) MaxClock() (float64, error) {
	m, err := c.fabric.MaxFloat(c.LocalMaxClock())
	if err != nil {
		return 0, fmt.Errorf("cluster: max clock: %w", err)
	}
	return m, nil
}

// Barrier advances every worker's clock to the cluster-wide maximum (the
// blocking wait of BSP-style synchronization) and then adds extra seconds
// of shared synchronization cost.
func (c *Cluster) Barrier(extra float64) error {
	m, err := c.MaxClock()
	if err != nil {
		return err
	}
	m += extra
	for _, w := range c.Workers {
		w.Clock = m
	}
	return nil
}

// SyncCost returns the virtual cost of one full synchronization round for
// this cluster's model under its topology: PS push+pull, or a ring
// allreduce (the decentralized swap of paper §III-E).
func (c *Cluster) SyncCost() float64 {
	if c.Topology == Ring {
		return c.Network.RingAllReduce(c.Spec.WireBytes, c.N())
	}
	return c.Network.PSSync(c.Spec.WireBytes, c.N())
}

// FlagsCost returns the virtual cost of SelSync's one-bit-per-worker
// status allgather.
func (c *Cluster) FlagsCost() float64 {
	return c.Network.AllGatherBits(c.N())
}

// ConsistentReplicas reports whether all locally hosted replicas hold
// bit-identical parameters — the invariant parameter aggregation restores
// after every synchronization and gradient aggregation violates once
// replicas diverge. The reference is the first hosted worker's flat view
// read in place (every worker flattens into its own storage, so no
// defensive clone is needed) and the scan stops at the first mismatching
// element.
func (c *Cluster) ConsistentReplicas() bool {
	ref := c.Workers[0].FlatParams()
	for _, w := range c.Workers[1:] {
		flat := w.FlatParams()
		for i := range ref {
			if flat[i] != ref[i] {
				return false
			}
		}
	}
	return true
}
