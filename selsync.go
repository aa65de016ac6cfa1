// Package selsync is a Go reproduction of "Accelerating Distributed ML
// Training via Selective Synchronization" (Tyagi & Swany, IEEE CLUSTER
// 2023). It bundles a from-scratch neural-network stack, a virtual-time
// cluster simulator (parameter server, workers, network cost models), the
// four distributed training algorithms the paper evaluates — BSP,
// FedAvg(C, E), SSP(s) and SelSync(δ) — and an experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the user-facing types and
// entry points from the internal packages so applications (see examples/)
// can program against one import.
//
// Quick start — NewJob(cfg, policy).Run(ctx) is the one way into a training
// run:
//
//	wload := selsync.WorkloadForModel("resnet", 4096, 1024, 1)
//	cfg := selsync.Config{
//		Model: selsync.ResNetLite(10, 6), Workers: 8, Batch: 16, Seed: 1,
//		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
//	}
//	policy := selsync.SelSyncPolicy{Delta: 0.05, Mode: selsync.ParamAgg}
//	res, err := selsync.NewJob(cfg, policy).Run(context.Background())
//	if err != nil { ... } // configuration and policy mistakes, not panics
//	fmt.Println(res)
//
// Every method runs on one policy-driven SPMD engine: the job owns batching,
// gradient compute, evaluation and early stopping, and a SyncPolicy
// (BSPPolicy, LocalSGDPolicy, SelSyncPolicy, FedAvgPolicy, SSPPolicy)
// decides each step's synchronization. Policies compose — SwitchPolicy and
// SchedulePolicy host Sync-Switch-style hybrids the per-method loops could
// not express:
//
//	policy := &selsync.SwitchPolicy{
//		From:   selsync.BSPPolicy{},                                // warmup
//		To:     selsync.SelSyncPolicy{Delta: 0.05, Mode: selsync.ParamAgg},
//		AtStep: 500,
//	}
//
// or, declaratively from a schedule string ("bsp:500,selsync" — the same
// grammar cmd/selsync-train's -method flag accepts):
//
//	policy, err := selsync.ParseSchedule("bsp:500,selsync", mkPolicy)
//
// Custom policies are one Decide method away; see SyncPolicy. Policies
// carry per-run state: build a fresh value for every job.
//
// A job can be cancelled, watched, checkpointed and resumed:
//
//	job := selsync.NewJob(cfg, selsync.SelSyncPolicy{Delta: 0.05, Mode: selsync.ParamAgg},
//		selsync.WithObserver(selsync.NewProgressObserver(os.Stderr)))
//	res, err := job.Run(ctx) // honors ctx cancellation with a partial Result
//	if errors.Is(err, context.Canceled) {
//		ck, _ := job.Checkpoint(context.Background())
//		selsync.SaveCheckpoint("run.ckpt", ck) // resume later with WithResume
//	}
//
// A resumed run (selsync.WithResume(ck) with an identically constructed
// Config and policy) continues bit-identically to one that was never
// interrupted. See examples/jobs for the full program.
//
// Distributed runs: setting Config.Fabric routes every synchronization
// round (parameter/gradient aggregation, broadcast, the SelSync flags
// allgather) through a communication backend instead of shared memory.
// Each OS process runs the same code over its block of workers — see
// examples/distributed for the full program:
//
//	// On process i of N (every process runs identical code):
//	fabric, err := selsync.DialTCPFabric(rank, peers, workers) // peers[rank] = own host:port
//	if err != nil { ... }
//	defer fabric.Close()
//	cfg.Fabric = fabric
//	res, err := selsync.NewJob(cfg, policy).Run(ctx)
//	// res is bit-identical on every rank, and to a single-process run
//	// (one diagnostic excepted: Config.TrackDeltas records only on the
//	// rank hosting worker 0).
//
// cmd/selsync-node launches such jobs on localhost (-launch N) or joins
// one rank at a time (-rank i -peers ...).
package selsync

import (
	"io"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/experiments"
	"selsync/internal/nn"
	"selsync/internal/serve"
	"selsync/internal/train"
)

// Core configuration and result types.
type (
	// Config describes one training run (workload, cluster size,
	// partitioning, schedule, budgets).
	Config = train.Config
	// Result carries the outcome: iterations, LSSR, metric history,
	// simulated wall-clock.
	Result = train.Result
	// EvalPoint is one point of a Result's test-metric history.
	EvalPoint = train.EvalPoint
	// NonIID configures label-skewed placement and data-injection.
	NonIID = train.NonIID
	// Injection is the randomized data-injection configuration (α, β).
	Injection = data.Injection
	// Dataset is an in-memory supervised dataset.
	Dataset = data.Dataset
	// Workload couples a train and test dataset.
	Workload = data.Workload
	// Factory builds replicas of one zoo model: New(seed) draws the initial
	// state, Build(nil) builds a blank replica to be filled by copy or restore.
	Factory = nn.Factory
	// ModelSpec describes a zoo model and its simulated cost constants.
	ModelSpec = nn.ModelSpec
	// Scheme selects the IID partitioning strategy.
	Scheme = data.Scheme
	// AggMode selects parameter vs gradient aggregation.
	AggMode = cluster.AggMode
)

// Partitioning schemes (paper §III-D).
const (
	// DefDP gives each worker one unique chunk (classic DDP).
	DefDP = data.DefDP
	// SelDP rotates all chunks through every worker (SelSync's scheme).
	SelDP = data.SelDP
)

// Aggregation modes (paper §III-C).
const (
	// ParamAgg averages parameters — SelSync's recommended mode.
	ParamAgg = cluster.ParamAgg
	// GradAgg averages gradients, leaving diverged replicas diverged.
	GradAgg = cluster.GradAgg
)

// The Job API: context-cancellable runs, typed event streams and
// bit-identical checkpoint/resume. NewJob is the entry point of every
// training run.
type (
	// Job is a first-class training run: Run(ctx) once, observe, cancel,
	// checkpoint, resume.
	Job = train.Job
	// JobOption configures NewJob (WithObserver, WithResume).
	JobOption = train.Option
	// Checkpoint is a complete run snapshot at a step boundary; a resumed
	// run continues bit-identically to an uninterrupted one.
	Checkpoint = train.Checkpoint
	// Observer receives a Job's typed event stream.
	Observer = train.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = train.ObserverFunc
	// Event is the sealed interface of all training events.
	Event = train.Event
	// StepEvent fires once per training step.
	StepEvent = train.StepEvent
	// SyncEvent fires for every synchronization round.
	SyncEvent = train.SyncEvent
	// EvalEvent fires after every test evaluation.
	EvalEvent = train.EvalEvent
	// PhaseSwitchEvent fires when a composite policy changes phase.
	PhaseSwitchEvent = train.PhaseSwitchEvent
	// CheckpointEvent fires when a mid-run checkpoint is captured.
	CheckpointEvent = train.CheckpointEvent
)

var (
	// NewJob builds a job over a config and a fresh policy value.
	NewJob = train.NewJob
	// WithObserver attaches an observer to the job's event stream.
	WithObserver = train.WithObserver
	// WithResume starts the run from a checkpoint.
	WithResume = train.WithResume
	// NewJSONLObserver writes one JSON object per event to a writer.
	NewJSONLObserver = train.NewJSONLObserver
	// NewProgressObserver renders live terminal progress.
	NewProgressObserver = train.NewProgressObserver
	// MultiObserver fans one event stream out to several observers.
	MultiObserver = train.MultiObserver
	// SaveCheckpoint / LoadCheckpoint are the checkpoint file helpers;
	// DecodeCheckpoint reads the wire format from any reader.
	SaveCheckpoint   = train.SaveCheckpoint
	LoadCheckpoint   = train.LoadCheckpoint
	DecodeCheckpoint = train.DecodeCheckpoint
)

// ParseSchedule parses a phase-schedule string ("bsp:500,selsync") into a
// policy, given a factory binding names to policies.
var ParseSchedule = train.ParseSchedule

// Synchronization policies. A SyncPolicy decides, once per engine step, how
// the freshly computed gradients synchronize; implement the interface for
// custom strategies, or compose the built-ins with Switch/Schedule.
type (
	// SyncPolicy is the per-step synchronization decision interface.
	SyncPolicy = train.SyncPolicy
	// Signals carries the per-step statistics a policy decides on.
	Signals = train.Signals
	// Action is a policy's decision for one step.
	Action = train.Action
	// ActionKind selects local, sync-grads, sync-params or round-average.
	ActionKind = train.ActionKind
	// BSPPolicy synchronizes gradients every step.
	BSPPolicy = train.BSPPolicy
	// LocalSGDPolicy never synchronizes.
	LocalSGDPolicy = train.LocalSGDPolicy
	// SelSyncPolicy votes per step on the Δ(g_i) significance signal.
	SelSyncPolicy = train.SelSyncPolicy
	// FedAvgPolicy averages a random worker fraction on a round cadence.
	FedAvgPolicy = train.FedAvgPolicy
	// SSPPolicy runs the asynchronous stale-synchronous event loop.
	SSPPolicy = train.SSPPolicy
	// SwitchPolicy changes the inner policy at a step boundary or when a
	// Signals predicate fires (Sync-Switch-style hybrids).
	SwitchPolicy = train.SwitchPolicy
	// SchedulePolicy runs a declarative phase list back to back.
	SchedulePolicy = train.SchedulePolicy
	// PolicyPhase is one SchedulePolicy entry: a policy and its step span.
	PolicyPhase = train.PolicyPhase
)

// Action kinds.
const (
	// ActLocal applies each worker's own update; no communication.
	ActLocal = train.ActLocal
	// ActSyncGrads aggregates gradients and applies the mean everywhere.
	ActSyncGrads = train.ActSyncGrads
	// ActSyncParams applies locally, then averages parameters.
	ActSyncParams = train.ActSyncParams
	// ActRoundAverage averages a participant subset's parameters and
	// broadcasts (FedAvg's round boundary).
	ActRoundAverage = train.ActRoundAverage
)

// Model zoo (miniature analogues of the paper's four workloads).
var (
	// ResNetLite is the deep residual classifier (ResNet101 analogue).
	ResNetLite = nn.ResNetLite
	// VGGLite is the plain convolutional classifier (VGG11 analogue).
	VGGLite = nn.VGGLite
	// AlexNetLite is the wide shallow classifier (AlexNet analogue).
	AlexNetLite = nn.AlexNetLite
	// TransformerLite is the encoder language model (Transformer analogue).
	TransformerLite = nn.TransformerLite
	// Zoo returns all four models keyed by short name.
	Zoo = nn.Zoo
)

// Dataset construction.
var (
	// NewWorkload builds one of the four synthetic dataset pairs.
	NewWorkload = data.NewWorkload
	// WorkloadForModel maps zoo model names to their paper datasets.
	WorkloadForModel = data.WorkloadForModel
	// NewImageGen builds a custom class-conditional Gaussian image source.
	NewImageGen = data.NewImageGen
	// NewTextGen builds a custom Markov-chain token source.
	NewTextGen = data.NewTextGen
)

// WorkloadSpec selects a synthetic dataset kind and size.
type WorkloadSpec = data.WorkloadSpec

// Fabric is the communication backend for Config.Fabric: a mesh of one
// rank (the single-process loopback) or of one TCP-connected process per
// rank.
type Fabric = comm.Fabric

// DialTCPFabric joins a multi-process training job as `rank`: it listens
// on peers[rank], connects the full TCP mesh to the other ranks, and
// returns the fabric for Config.Fabric. workers is the global worker
// count and must be divisible by len(peers); this rank hosts workers
// [rank·W/P, (rank+1)·W/P). Close the fabric after the run.
func DialTCPFabric(rank int, peers []string, workers int) (Fabric, error) {
	return comm.DialTCPMesh(rank, peers, workers)
}

// The serving subsystem (cmd/selsync-serve, cmd/selsync-ctl): a
// long-lived multi-tenant daemon accepting job submissions over the
// SEL1 wire protocol, scheduling them onto a bounded slot pool with
// strict priorities and weighted fair shares, and preempting through
// the checkpoint machinery — a preempted-then-resumed job's Result
// digest equals the uninterrupted run's.
type (
	// ServeServer is the scheduling daemon core.
	ServeServer = serve.Server
	// ServeOptions configures slots, queue limits, quotas and weights.
	ServeOptions = serve.Options
	// ServeClient speaks the wire protocol over one connection.
	ServeClient = serve.Client
	// ServeJobSpec describes one submitted job (tenant, priority, run
	// parameters).
	ServeJobSpec = serve.JobSpec
	// ServeStatus is the daemon's status snapshot.
	ServeStatus = serve.Status
	// ServeWireEvent is one streamed job event.
	ServeWireEvent = serve.WireEvent
	// ServeJobBuilder turns an admitted spec into a runnable Job.
	ServeJobBuilder = serve.Builder
)

var (
	// NewServeServer builds a scheduling daemon over a job builder.
	NewServeServer = serve.NewServer
	// NewStandardJobBuilder is the builder the daemon normally runs with:
	// specs build exactly as cmd/selsync-train would build them, each on
	// a fresh in-process loopback fabric.
	NewStandardJobBuilder = experiments.ServeBuilder
	// DialServe connects a client to a daemon's TCP address.
	DialServe = serve.Dial
	// NewServeClient wraps an established connection.
	NewServeClient = serve.NewClient
	// NewServePipeListener is an in-process listener for wire-level use
	// without sockets.
	NewServePipeListener = serve.NewPipeListener
)

// ExperimentScale selects experiment sizing for RunExperiment.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	// ScaleTiny runs in seconds (unit-test sizing).
	ScaleTiny = experiments.Tiny
	// ScaleQuick runs in tens of seconds per training experiment.
	ScaleQuick = experiments.Quick
	// ScaleFull is the closest to the paper's 16-worker setup.
	ScaleFull = experiments.Full
)

// RunExperiment regenerates one paper table/figure by id ("fig1a" …
// "table1"), writing the report to w.
func RunExperiment(id string, scale ExperimentScale, w io.Writer) error {
	return experiments.Run(id, scale, w)
}

// RunAllExperiments regenerates every table and figure in id order. With
// SetExperimentParallelism(n>1) the independent training runs inside (and
// across) experiments execute concurrently under one n-slot budget; the
// report bytes still come out in id order, identical to a serial run for
// every deterministic experiment.
func RunAllExperiments(scale ExperimentScale, w io.Writer) error {
	return experiments.RunAll(scale, w)
}

// SetExperimentParallelism sets the process-wide number of training runs
// the experiment harness may execute concurrently (selsync-bench's
// -parallel flag). Values below 1 mean serial, the default.
func SetExperimentParallelism(n int) { experiments.SetParallelism(n) }

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }
