// Package train implements the distributed training algorithms the paper
// evaluates — BSP, FedAvg(C, E), SSP(s), pure local SGD and SelSync(δ) —
// over the simulated cluster of internal/cluster. Convergence numbers are
// produced by real SGD on real (synthetic) data; times are virtual seconds
// from the simnet cost models. Every run returns a Result carrying the
// paper's Table I columns (iterations, LSSR, final metric, simulated time).
package train

import (
	"fmt"
	"math"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/simnet"
)

// NonIID configures label-skewed data placement plus optional randomized
// data-injection (paper §III-E).
type NonIID struct {
	LabelsPerWorker int
	Injection       *data.Injection // nil = no injection
}

// Config is the shared description of one training run.
type Config struct {
	Model   nn.Factory
	Workers int
	Batch   int // per-worker mini-batch size b
	Seed    uint64

	Train *data.Dataset
	Test  *data.Dataset

	// Scheme picks the IID partitioning (DefDP or SelDP); ignored when
	// NonIID is set.
	Scheme data.Scheme
	NonIID *NonIID

	// Opt builds each worker's optimizer; nil selects SGD with momentum
	// 0.9 and no weight decay. Schedule maps steps to learning rates; nil
	// selects a constant 0.05.
	Opt      cluster.OptBuilder
	Schedule opt.Schedule

	Network *simnet.Network
	Device  func(id int) *simnet.Device
	// Topology prices synchronization rounds: cluster.PS (default) or
	// cluster.Ring, the paper's §III-E allreduce swap.
	Topology cluster.Topology
	// Fabric is the communication backend synchronization executes
	// through. Nil selects the in-process loopback (a one-rank comm.Mesh:
	// all workers in this process). A mesh with more ranks runs the same
	// algorithm across OS processes: every rank executes the run over its
	// hosted worker block, exchanging parameters, gradients and SelSync
	// flags over the wire.
	// The fabric's global worker count must equal Workers, and every rank
	// must use identical Config values — determinism then makes the ranks'
	// Results bit-identical to a loopback run, with one exception: the
	// TrackDeltas series lands only in the Result of the rank hosting
	// worker 0 (it reads that worker's tracker).
	Fabric comm.Fabric

	// Codec selects the wire payload codec for synchronization rounds,
	// in the comm.ParseCodec grammar: "none" (default — dense rounds,
	// bit-identical to every prior release), "topk:<frac>" (top-k
	// sparsification with error feedback), "q8" / "q16" (linear
	// quantization with error feedback), "partial:<up>[,<down>]"
	// (selective partial-parameter sharing). Mutually exclusive with
	// elastic membership (Membership, or Quorum on a multi-rank fabric):
	// error-feedback residuals cannot survive adoption handoffs.
	Codec string

	// Membership scripts planned elastic-membership transitions (the
	// ParseMembershipPlan grammar: "leave=R@S;join=R@S2[;quorum=K][;procs=P]").
	// Empty disables planned transitions; an elastic mesh fabric still
	// absorbs unplanned ones. Every rank of an SPMD run must carry the
	// identical plan — that is what makes a degraded run's digest
	// bit-identical across loopback and TCP and across repeats.
	Membership string
	// Quorum is the minimum live-rank count the run continues under
	// (0 selects ⌈P/2⌉+1). Below it the run fails with comm.ErrQuorumLost
	// and takes the emergency-checkpoint path.
	Quorum int

	MaxSteps  int // hard bound on training steps (per worker); default 2000
	EvalEvery int // steps between test evaluations; default 50
	// EvalChunk is the number of examples per chunk of the evaluation's loss
	// fold (the mean loss of each chunk, weighted by its rows): it fixes the
	// reported loss to the last bit, and nothing else — forward passes run in
	// fixed blocks of their own (eval.go). Default 256.
	EvalChunk int
	// Patience stops the run after this many consecutive evaluations
	// without improvement of the test metric; 0 disables early stopping.
	Patience int

	// TrackDeltas records worker 0's Δ(g_i) for every step (Fig. 5).
	TrackDeltas bool
	// SnapshotAtSteps records the global (mean) parameter vector and the
	// mean gradient vector at the given steps (Figs. 3 and 11).
	SnapshotAtSteps []int

	// TrackerWindow and TrackerAlpha override the Δ(g_i) smoothing
	// (defaults: window 25, alpha Workers/100 — the paper's §III-A).
	TrackerWindow int
	TrackerAlpha  float64
}

// Validate reports the first configuration mistake as an error, after
// applying the same defaulting a run would (so zero values that have
// defaults — Workers, Batch, budgets — are fine, while explicit negatives
// and structural mistakes are not). Job.Run and the CLIs call it up front,
// turning what used to be mid-construction panics into ordinary errors.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Train == nil || d.Test == nil {
		return fmt.Errorf("train: Config.Train and Config.Test are required")
	}
	if d.Workers <= 0 {
		return fmt.Errorf("train: Config.Workers must be positive, got %d", d.Workers)
	}
	if d.Batch <= 0 {
		return fmt.Errorf("train: Config.Batch must be positive, got %d", d.Batch)
	}
	if d.MaxSteps <= 0 {
		return fmt.Errorf("train: Config.MaxSteps must be positive, got %d", d.MaxSteps)
	}
	if d.EvalEvery <= 0 {
		return fmt.Errorf("train: Config.EvalEvery must be positive, got %d", d.EvalEvery)
	}
	if d.EvalChunk <= 0 {
		return fmt.Errorf("train: Config.EvalChunk must be positive, got %d", d.EvalChunk)
	}
	if d.Patience < 0 {
		return fmt.Errorf("train: Config.Patience must be non-negative, got %d", d.Patience)
	}
	if d.TrackerWindow < 0 {
		return fmt.Errorf("train: Config.TrackerWindow must be non-negative, got %d", d.TrackerWindow)
	}
	if d.TrackerAlpha < 0 {
		return fmt.Errorf("train: Config.TrackerAlpha must be non-negative, got %g", d.TrackerAlpha)
	}
	if d.Quorum < 0 {
		return fmt.Errorf("train: Config.Quorum must be non-negative, got %d", d.Quorum)
	}
	if _, err := ParseMembershipPlan(d.Membership); err != nil {
		return err
	}
	codec, err := comm.ParseCodec(d.Codec)
	if err != nil {
		return err
	}
	if d.Membership != "" && !codec.Nop() {
		return fmt.Errorf("train: payload codecs require static membership (Config.Membership must be empty)")
	}
	if d.Fabric != nil && d.Fabric.Workers() != d.Workers {
		return fmt.Errorf("train: Config.Workers=%d but the fabric carries %d workers",
			d.Workers, d.Fabric.Workers())
	}
	if d.NonIID != nil {
		if d.NonIID.LabelsPerWorker <= 0 {
			return fmt.Errorf("train: NonIID.LabelsPerWorker must be positive, got %d", d.NonIID.LabelsPerWorker)
		}
		if d.NonIID.Injection != nil {
			if err := d.NonIID.Injection.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Opt == nil {
		c.Opt = func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, 0.9, 0) }
	}
	if c.Schedule == nil {
		c.Schedule = opt.Constant{Rate: 0.05}
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2000
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 50
	}
	if c.EvalChunk == 0 {
		c.EvalChunk = 256
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// EvalPoint is one test-set evaluation during training.
type EvalPoint struct {
	Step    int
	Epoch   float64
	SimTime float64 // virtual seconds at the evaluation
	Loss    float64
	Metric  float64 // accuracy % (higher better) or perplexity (lower better)
}

// Result summarizes one training run.
type Result struct {
	Method string
	Model  string

	Steps      int     // steps executed (per worker)
	SyncSteps  int     // steps whose updates were synchronized
	LocalSteps int     // steps applied locally only
	LSSR       float64 // Eqn. 4; -1 when not applicable (SSP)

	FinalMetric   float64
	BestMetric    float64
	BestStep      int
	SimTime       float64 // virtual seconds for the whole run
	SimTimeAtBest float64 // virtual seconds when the best metric was hit

	History   []EvalPoint
	Deltas    []float64 // per-step Δ(g_i) when Config.TrackDeltas
	Snapshots map[int]Snapshot

	Perplexity bool // interpretation of Metric fields
}

// Snapshot captures global model state mid-run.
type Snapshot struct {
	Step   int
	Params []float64
	Grads  []float64
}

// CommReduction returns the paper's communication-reduction reading of the
// LSSR: 1/(1−LSSR), i.e. how many times fewer synchronizations than BSP.
func (r *Result) CommReduction() float64 {
	if r.LSSR < 0 || r.LSSR >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - r.LSSR)
}

// BetterMetric reports whether a beats b under this result's metric
// direction (higher accuracy, lower perplexity).
func (r *Result) BetterMetric(a, b float64) bool {
	if r.Perplexity {
		return a < b
	}
	return a > b
}

// String renders a one-line summary.
func (r *Result) String() string {
	lssr := "-"
	if r.LSSR >= 0 {
		lssr = fmt.Sprintf("%.3f", r.LSSR)
	}
	unit := "acc%"
	if r.Perplexity {
		unit = "ppl"
	}
	return fmt.Sprintf("%s[%s]: steps=%d lssr=%s best %s=%.2f@%d simtime=%.1fs",
		r.Method, r.Model, r.Steps, lssr, unit, r.BestMetric, r.BestStep, r.SimTime)
}
