package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/train"
)

// RunSpec describes one CLI-driven training run — the shared surface of
// cmd/selsync-train and cmd/selsync-node, including multi-process runs
// over a comm fabric.
type RunSpec struct {
	Model string // resnet | vgg | alexnet | transformer
	// Method is a synchronization policy: one of the five method names
	// (bsp | selsync | fedavg | ssp | local) or a hybrid phase schedule
	// like "bsp:200,selsync" (see train.ParseSchedule for the grammar).
	Method string
	Scheme string // seldp | defdp

	Workers  int
	TrainN   int
	TestN    int
	MaxSteps int
	Seed     uint64

	Delta   float64 // SelSync δ (0 = the workload's calibrated low threshold)
	GradAgg bool    // SelSync gradient aggregation instead of parameter aggregation

	C float64 // FedAvg participation fraction
	E float64 // FedAvg sync factor

	Staleness int // SSP staleness bound

	LabelsPerWorker int     // non-IID labels per worker (0 = IID)
	Alpha, Beta     float64 // data-injection parameters (Alpha 0 = off)

	// Membership is an elastic-membership plan (train.ParseMembershipPlan
	// grammar: "leave=R@S;join=R@S2[;quorum=K][;procs=P]"); "" = static.
	Membership string
	// Quorum overrides the continuation threshold (0 = plan/default).
	Quorum int

	// Codec is the wire payload codec (comm.ParseCodec grammar: "none",
	// "topk:F", "q8", "q16", "partial:U[,D]"); "" = none. Valid on both
	// transports — loopback runs exercise the full encode/decode path.
	Codec string

	// Fabric is the communication backend; nil = in-process loopback.
	Fabric comm.Fabric
}

// ParseTransport validates a CLI's -transport/-rank/-peers/-workers flag
// combination and builds the communication fabric: (nil, true, nil) for
// the loopback transport, a dialed TCP mesh for "tcp". report says
// whether this process should print the run report (every rank of a mesh
// holds the same one; rank 0 prints it). The caller owns Close on a non-nil fabric.
func ParseTransport(transport string, rank int, peers string, workers int) (fabric comm.Fabric, report bool, err error) {
	return ParseTransportOpts(transport, rank, peers, workers, TransportOptions{})
}

// TransportOptions extends ParseTransport with the fault-tolerance CLI
// surface: deterministic chaos injection in front of the endpoint,
// transport tuning, and a bound on collective receives. The zero value is
// ParseTransport exactly.
type TransportOptions struct {
	// Chaos is a fault-plan script (see comm.ParseFaultPlan) wrapped around
	// the TCP endpoint; "" injects nothing. Only meaningful on the tcp
	// transport — the loopback run has no fabric to fault.
	Chaos string
	// TCP overrides the transport tuning (nil = comm.DefaultTCPOptions).
	TCP *comm.TCPOptions
	// OpTimeout bounds every collective receive on the mesh, so a rank
	// blocked on a dead peer fails with comm.ErrTimeout (0 = unbounded).
	OpTimeout time.Duration
	// OnCrash runs when the chaos plan's scheduled crash fires (the node
	// CLI exits the process, faithfully simulating a killed rank).
	OnCrash func()
	// Heartbeat starts the mesh liveness protocol with this beacon
	// interval (silence past 4 intervals marks a peer suspect); 0 = off.
	Heartbeat time.Duration
	// Rejoin dials back into a *running* mesh (selsync-node -join) instead
	// of performing the full-mesh startup handshake: the rank rebinds its
	// listen address and reconnects toward rank 0 through the mid-run
	// replacement-connection path.
	Rejoin bool
}

// ParseTransportOpts is ParseTransport with options.
func ParseTransportOpts(transport string, rank int, peers string, workers int, o TransportOptions) (fabric comm.Fabric, report bool, err error) {
	switch transport {
	case "loopback":
		// -rank/-peers only mean something on the TCP transport; reject
		// them instead of silently ignoring a half-configured mesh.
		if rank != -1 {
			return nil, false, fmt.Errorf("-rank is only valid with -transport tcp")
		}
		if peers != "" {
			return nil, false, fmt.Errorf("-peers is only valid with -transport tcp")
		}
		if o.Chaos != "" {
			return nil, false, fmt.Errorf("-chaos requires -transport tcp (the loopback run has no fabric to fault)")
		}
		// The remaining options tune the TCP endpoint or bound mesh
		// receives; accepting them here would silently do nothing.
		if o.TCP != nil {
			return nil, false, fmt.Errorf("TCP transport tuning is only valid with -transport tcp")
		}
		if o.OpTimeout > 0 {
			return nil, false, fmt.Errorf("-op-timeout requires -transport tcp (the loopback run has no collective receives to bound)")
		}
		if o.Heartbeat > 0 {
			return nil, false, fmt.Errorf("-heartbeat requires -transport tcp (the loopback run has no peers to monitor)")
		}
		if o.Rejoin {
			return nil, false, fmt.Errorf("-join requires -transport tcp (there is no running mesh to rejoin)")
		}
		return nil, true, nil
	case "tcp":
		list := splitPeers(peers)
		if len(list) == 0 {
			return nil, false, fmt.Errorf("-transport tcp requires -peers host:port[,host:port...]")
		}
		if rank < 0 || rank >= len(list) {
			return nil, false, fmt.Errorf("-rank must be in [0,%d) for %d peers, got %d", len(list), len(list), rank)
		}
		if workers%len(list) != 0 {
			return nil, false, fmt.Errorf("-workers (%d) must be divisible by the number of peers (%d)", workers, len(list))
		}
		var plan comm.FaultPlan
		if o.Chaos != "" {
			if plan, err = comm.ParseFaultPlan(o.Chaos); err != nil {
				return nil, false, fmt.Errorf("-chaos: %w", err)
			}
			plan.OnCrash = o.OnCrash
		}
		tcpOpts := comm.DefaultTCPOptions()
		if o.TCP != nil {
			tcpOpts = *o.TCP
		}
		var ep *comm.TCPEndpoint
		if o.Rejoin {
			ep, err = comm.RejoinTCP(rank, list, tcpOpts)
		} else {
			ep, err = comm.DialTCPOpts(rank, list, tcpOpts)
		}
		if err != nil {
			return nil, false, fmt.Errorf("tcp transport: %w", err)
		}
		var endpoint comm.Endpoint = ep
		if o.Chaos != "" {
			endpoint = comm.WithFaults(endpoint, plan)
		}
		mesh, err := comm.NewMesh(endpoint, workers)
		if err != nil {
			endpoint.Close()
			return nil, false, fmt.Errorf("tcp transport: %w", err)
		}
		if o.OpTimeout > 0 {
			mesh.SetOpTimeout(o.OpTimeout)
		}
		if o.Heartbeat > 0 {
			mesh.StartHeartbeats(o.Heartbeat, 4*o.Heartbeat)
		}
		return mesh, rank == 0, nil
	default:
		return nil, false, fmt.Errorf("unknown -transport %q (want loopback or tcp)", transport)
	}
}

// splitPeers splits a comma-separated peer list, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// JobFor builds the training Job a RunSpec describes, forwarding extra
// Job options (observers, resume checkpoints) — the shared backend of
// cmd/selsync-train and cmd/selsync-node. The returned Workload exposes
// the workload's metadata (metric direction, calibrated thresholds) for
// report rendering. Run the job once with job.Run(ctx); on a multi-process
// fabric every rank must do so SPMD with an identical spec.
func JobFor(spec RunSpec, opts ...train.Option) (*train.Job, Workload, error) {
	known := false
	for _, name := range AllWorkloads() {
		if name == spec.Model {
			known = true
			break
		}
	}
	if !known {
		return nil, Workload{}, fmt.Errorf("unknown model %q (have %v)", spec.Model, AllWorkloads())
	}

	p := Params{
		Workers: spec.Workers, TrainN: spec.TrainN, TestN: spec.TestN,
		MaxSteps: spec.MaxSteps, EvalEvery: max(1, spec.MaxSteps/10),
	}
	wl := SetupWorkload(spec.Model, p, spec.Seed)
	cfg := BaseConfig(wl, p, spec.Seed)
	cfg.Fabric = spec.Fabric

	switch spec.Scheme {
	case "", "seldp":
		cfg.Scheme = data.SelDP
	case "defdp":
		cfg.Scheme = data.DefDP
	default:
		return nil, Workload{}, fmt.Errorf("unknown scheme %q (want seldp or defdp)", spec.Scheme)
	}
	if spec.LabelsPerWorker > 0 {
		non := &train.NonIID{LabelsPerWorker: spec.LabelsPerWorker}
		if spec.Alpha > 0 {
			non.Injection = &data.Injection{Alpha: spec.Alpha, Beta: spec.Beta}
		}
		cfg.NonIID = non
	}
	cfg.Membership = spec.Membership
	cfg.Quorum = spec.Quorum
	cfg.Codec = spec.Codec
	if err := cfg.Validate(); err != nil {
		return nil, Workload{}, err
	}

	policy, err := PolicyFor(spec, wl)
	if err != nil {
		return nil, Workload{}, err
	}
	return train.NewJob(cfg, policy, opts...), wl, nil
}

// runPolicy executes one training run through the Job API under a
// fan-out's context — the leaf every figure/table run goes through. A
// failed or cancelled run panics; parallelDo turns that into fan-out
// cancellation (stopping the sibling runs in flight) and experiments.Run
// into an error.
func runPolicy(ctx context.Context, cfg train.Config, policy train.SyncPolicy) *train.Result {
	res, err := train.NewJob(cfg, policy).Run(ctx)
	if err != nil {
		panic(err)
	}
	return res
}

// PolicyFor builds the synchronization policy spec.Method names, binding
// the CLI options (δ and aggregation mode, FedAvg's C/E, SSP's staleness)
// to each named phase. A bare method name yields the pure policy; a
// comma-separated phase list like "bsp:200,selsync" yields the hybrid
// schedule the engine runs as one training loop.
func PolicyFor(spec RunSpec, wl Workload) (train.SyncPolicy, error) {
	mk := func(name string) (train.SyncPolicy, error) {
		switch name {
		case "bsp":
			return train.BSPPolicy{}, nil
		case "local":
			return train.LocalSGDPolicy{}, nil
		case "selsync":
			d := spec.Delta
			if d == 0 {
				d = wl.DeltaLow
			}
			mode := cluster.ParamAgg
			if spec.GradAgg {
				mode = cluster.GradAgg
			}
			return train.SelSyncPolicy{Delta: d, Mode: mode}, nil
		case "fedavg":
			return &train.FedAvgPolicy{C: spec.C, E: spec.E}, nil
		case "ssp":
			return &train.SSPPolicy{Staleness: spec.Staleness, PSOpt: wl.SSPOpt}, nil
		default:
			return nil, fmt.Errorf("unknown method %q (want bsp|selsync|fedavg|ssp|local, or a phase schedule like \"bsp:200,selsync\")", name)
		}
	}
	return train.ParseSchedule(spec.Method, mk)
}
