package train

import (
	"context"
	"math"
	"strings"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/simnet"
)

// smallConfig builds a fast 4-worker workload: VGGLite on an easy 4-class
// Gaussian task that BSP solves well within 150 steps.
func smallConfig(seed uint64) Config {
	g := data.NewImageGen(4, 1.2, 1.0, 3e3, seed)
	train := g.Dataset("train", 512)
	test := g.Dataset("test", 256)
	return Config{
		Model:     nn.VGGLite(4),
		Workers:   4,
		Batch:     16,
		Seed:      seed,
		Train:     train,
		Test:      test,
		Scheme:    data.SelDP,
		Schedule:  opt.Constant{Rate: 0.05},
		MaxSteps:  150,
		EvalEvery: 25,
	}
}

// mustRun runs one job to completion — NewJob(cfg, policy).Run, the one way
// in. A run error panics rather than calling t.Fatal: the call sites include
// the rank goroutines of runTCPRanks, whose harness turns a rank's panic
// into the test's failure.
func mustRun(cfg Config, policy SyncPolicy) *Result {
	res, err := NewJob(cfg, policy).Run(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

func TestBSPConvergesAndIsFullySynchronous(t *testing.T) {
	res := mustRun(smallConfig(1), BSPPolicy{})
	if res.LSSR != 0 {
		t.Fatalf("BSP LSSR must be 0, got %v", res.LSSR)
	}
	if res.SyncSteps != res.Steps || res.LocalSteps != 0 {
		t.Fatalf("BSP step accounting wrong: %+v", res)
	}
	if res.BestMetric < 70 {
		t.Fatalf("BSP should solve the easy task, best acc %.1f%%", res.BestMetric)
	}
	if res.SimTime <= 0 {
		t.Fatal("virtual time must advance")
	}
	if len(res.History) == 0 {
		t.Fatal("history must be recorded")
	}
}

func TestLocalSGDNeverSynchronizes(t *testing.T) {
	res := mustRun(smallConfig(2), LocalSGDPolicy{})
	if res.LSSR != 1 {
		t.Fatalf("LocalSGD LSSR must be 1, got %v", res.LSSR)
	}
	if res.SyncSteps != 0 {
		t.Fatalf("LocalSGD must not sync: %+v", res)
	}
	if math.IsInf(res.CommReduction(), 1) == false {
		t.Fatal("CommReduction of pure local training must be infinite")
	}
}

func TestSelSyncDeltaZeroDegeneratesToBSP(t *testing.T) {
	cfg := smallConfig(3)
	res := mustRun(cfg, SelSyncPolicy{Delta: 0, Mode: cluster.ParamAgg})
	if res.LSSR != 0 {
		t.Fatalf("δ=0 must synchronize every step, LSSR=%v", res.LSSR)
	}
}

func TestSelSyncHugeDeltaDegeneratesToLocalSGD(t *testing.T) {
	cfg := smallConfig(4)
	res := mustRun(cfg, SelSyncPolicy{Delta: 1e12, Mode: cluster.ParamAgg})
	if res.LSSR != 1 {
		t.Fatalf("huge δ must never synchronize, LSSR=%v", res.LSSR)
	}
}

func TestSelSyncMixedRegimeAndSpeedup(t *testing.T) {
	cfg := smallConfig(5)
	bsp := mustRun(cfg, BSPPolicy{})
	sel := mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	if sel.LSSR <= 0 || sel.LSSR >= 1 {
		t.Fatalf("moderate δ should mix local and sync steps, LSSR=%v (sync=%d local=%d)",
			sel.LSSR, sel.SyncSteps, sel.LocalSteps)
	}
	// Same number of steps but fewer synchronizations: virtual time must
	// be strictly lower than BSP's.
	if !(sel.SimTime < bsp.SimTime) {
		t.Fatalf("SelSync should be faster: %v vs BSP %v", sel.SimTime, bsp.SimTime)
	}
	// And it should still learn the task.
	if sel.BestMetric < 70 {
		t.Fatalf("SelSync accuracy too low: %.1f%%", sel.BestMetric)
	}
}

func TestSelSyncGAvsPAConsistency(t *testing.T) {
	// After a ParamAgg sync step, replicas are consistent; GradAgg leaves
	// them diverged once local steps have happened. Observed through the
	// cluster invariant at the end of short runs with a δ that forces a
	// final sync (δ=0 syncs at every step including the last).
	cfg := smallConfig(6)
	cfg.MaxSteps = 30

	pa := runSelSyncReturningCluster(cfg, SelSyncPolicy{Delta: 0, Mode: cluster.ParamAgg})
	if !pa.ConsistentReplicas() {
		t.Fatal("PA with δ=0 must keep replicas consistent")
	}
	ga := runSelSyncReturningCluster(cfg, SelSyncPolicy{Delta: 0, Mode: cluster.GradAgg})
	if !ga.ConsistentReplicas() {
		// With δ=0 there are no local steps, so GA replicas also remain
		// consistent (the BSP equivalence of §III-C).
		t.Fatal("GA with δ=0 (no local phases) must also stay consistent")
	}
}

// runSelSyncReturningCluster runs a SelSync job's loop but exposes the
// cluster for invariant checks: it drives the engine directly and skips
// finish (which would release the cluster).
func runSelSyncReturningCluster(cfg Config, policy SelSyncPolicy) *cluster.Cluster {
	r := newRunner(cfg, "probe", false)
	newEngine(r, policy).run(0, nil)
	return r.cl
}

func TestSelSyncGADivergesReplicasUnderLocalPhases(t *testing.T) {
	cfg := smallConfig(7)
	cfg.MaxSteps = 40
	// A δ that produces mostly local steps with occasional syncs.
	r := newRunner(cfg, "probe", false)
	newEngine(r, SelSyncPolicy{Delta: 0.02, Mode: cluster.GradAgg}).run(0, nil)
	if r.res.LocalSteps == 0 {
		t.Skip("no local phases materialized; divergence unobservable")
	}
	if r.cl.ConsistentReplicas() {
		t.Fatal("GA after local phases should leave replicas diverged")
	}
}

func TestFedAvgSyncCadence(t *testing.T) {
	cfg := smallConfig(8)
	cfg.MaxSteps = 64
	// stepsPerEpoch = 512/(4·16) = 8; E=0.5 → sync every 4 steps →
	// 16 sync steps in 64.
	res := mustRun(cfg, &FedAvgPolicy{C: 1, E: 0.5})
	if res.SyncSteps != 16 {
		t.Fatalf("sync steps: got %d want 16 (local=%d)", res.SyncSteps, res.LocalSteps)
	}
	wantLSSR := float64(64-16) / 64
	if math.Abs(res.LSSR-wantLSSR) > 1e-9 {
		t.Fatalf("LSSR: got %v want %v", res.LSSR, wantLSSR)
	}
}

func TestFedAvgPartialParticipationStillRuns(t *testing.T) {
	cfg := smallConfig(9)
	cfg.MaxSteps = 48
	res := mustRun(cfg, &FedAvgPolicy{C: 0.5, E: 0.25})
	if res.Steps != 48 {
		t.Fatalf("steps: %d", res.Steps)
	}
	if res.BestMetric <= 25 {
		t.Fatalf("FedAvg should beat chance: %.1f%%", res.BestMetric)
	}
}

func TestFedAvgValidation(t *testing.T) {
	cfg := smallConfig(10)
	for _, p := range []FedAvgPolicy{{C: 0, E: 0.5}, {C: 0.5, E: 0}, {C: 1.5, E: 0.5}, {C: 1, E: 1.5}} {
		res, err := NewJob(cfg, &p).Run(context.Background())
		if err == nil || res != nil || !strings.Contains(err.Error(), "FedAvg") {
			t.Fatalf("C=%v E=%v: want a FedAvg validation error and no Result, got %v, %v", p.C, p.E, res, err)
		}
	}
}

func TestSSPRunsAndRespectsStaleness(t *testing.T) {
	cfg := smallConfig(11)
	cfg.MaxSteps = 60
	res := mustRun(cfg, &SSPPolicy{Staleness: 5})
	if res.LSSR != -1 {
		t.Fatalf("SSP LSSR must be N/A (-1), got %v", res.LSSR)
	}
	if res.Steps < 55 || res.Steps > 65 {
		t.Fatalf("per-worker steps ≈ MaxSteps expected, got %d", res.Steps)
	}
	if res.BestMetric < 60 {
		t.Fatalf("SSP should learn the easy task: %.1f%%", res.BestMetric)
	}
}

func TestSSPStalenessBoundsWorkerSpread(t *testing.T) {
	cfg := smallConfig(12)
	cfg.MaxSteps = 40
	// Heterogeneous cluster: worker 0 is 4× slower, forcing the gate.
	cfg.Device = deviceWithStraggler(cfg.Seed, 0, 4)
	const staleness = 3
	r := newRunner(cfg, "probe", false)
	if _, err := runSSPLoop(r, &SSPPolicy{Staleness: staleness}); err != nil {
		t.Fatal(err)
	}
	minSteps, maxSteps := math.MaxInt, 0
	for _, w := range r.cl.Workers {
		if w.Steps < minSteps {
			minSteps = w.Steps
		}
		if w.Steps > maxSteps {
			maxSteps = w.Steps
		}
	}
	if maxSteps-minSteps > staleness+1 {
		t.Fatalf("staleness gate violated: spread %d > %d", maxSteps-minSteps, staleness+1)
	}
	if maxSteps-minSteps == 0 {
		t.Fatal("a 4× straggler should produce some spread")
	}
}

// deviceWithStraggler makes worker `slow` run `factor`× slower than the
// rest (jitter-free for exact spread accounting).
func deviceWithStraggler(seed uint64, slow int, factor float64) func(id int) *simnet.Device {
	return func(id int) *simnet.Device {
		d := simnet.NewV100(seed ^ uint64(id))
		d.Jitter = 0
		if id == slow {
			d.Straggle = factor
		}
		return d
	}
}

func TestSSPValidation(t *testing.T) {
	res, err := NewJob(smallConfig(13), &SSPPolicy{Staleness: -1}).Run(context.Background())
	if err == nil || res != nil || !strings.Contains(err.Error(), "staleness") {
		t.Fatalf("want a staleness validation error and no Result, got %v, %v", res, err)
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	cfg := smallConfig(14)
	cfg.MaxSteps = 2000
	cfg.EvalEvery = 10
	cfg.Patience = 3
	res := mustRun(cfg, BSPPolicy{})
	if res.Steps >= 2000 {
		t.Fatal("patience should stop the run before MaxSteps")
	}
}

func TestDeltaTrackingAndSnapshots(t *testing.T) {
	cfg := smallConfig(15)
	cfg.MaxSteps = 30
	cfg.TrackDeltas = true
	cfg.SnapshotAtSteps = []int{9, 19}
	res := mustRun(cfg, BSPPolicy{})
	if len(res.Deltas) != 30 {
		t.Fatalf("deltas: got %d want 30", len(res.Deltas))
	}
	if len(res.Snapshots) != 2 {
		t.Fatalf("snapshots: got %d want 2", len(res.Snapshots))
	}
	snap := res.Snapshots[9]
	if snap.Step != 9 || len(snap.Params) == 0 || len(snap.Grads) == 0 {
		t.Fatalf("snapshot malformed: step=%d params=%d grads=%d",
			snap.Step, len(snap.Params), len(snap.Grads))
	}
}

func TestSelDPBeatsDefDPUnderLocalTraining(t *testing.T) {
	// The Fig. 9 mechanism at miniature scale: with mostly-local training,
	// SelDP (every worker sees all data) must beat DefDP (each worker
	// overfits its shard).
	base := smallConfig(16)
	base.MaxSteps = 200
	runWith := func(s data.Scheme) float64 {
		cfg := base
		cfg.Scheme = s
		res := mustRun(cfg, SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg})
		return res.BestMetric
	}
	sel := runWith(data.SelDP)
	def := runWith(data.DefDP)
	if !(sel >= def-1.0) { // SelDP must not lose meaningfully
		t.Fatalf("SelDP (%.1f%%) should be at least on par with DefDP (%.1f%%)", sel, def)
	}
}

func TestNonIIDWithInjectionRuns(t *testing.T) {
	g := data.NewImageGen(8, 1.2, 1.0, 3e3, 77)
	cfg := smallConfig(17)
	cfg.Model = nn.VGGLite(8)
	cfg.Train = g.Dataset("train", 512)
	cfg.Test = g.Dataset("test", 256)
	cfg.Workers = 4
	cfg.MaxSteps = 60
	cfg.NonIID = &NonIID{
		LabelsPerWorker: 2,
		Injection:       &data.Injection{Alpha: 0.5, Beta: 0.5},
	}
	res := mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	if res.Steps != 60 {
		t.Fatalf("steps: %d", res.Steps)
	}
	if res.BestMetric <= 12.5 {
		t.Fatalf("injection run should beat chance: %.1f%%", res.BestMetric)
	}
}

func TestEvaluateDataset(t *testing.T) {
	g := data.NewImageGen(4, 1.2, 1.0, 3e3, 18)
	test := g.Dataset("t", 100)
	net := nn.VGGLite(4).New(1)
	loss, metric := EvaluateDataset(net, test, 32)
	if loss <= 0 || metric < 0 || metric > 100 {
		t.Fatalf("eval out of range: loss=%v metric=%v", loss, metric)
	}
	// Chunking must not change the answer.
	loss2, metric2 := EvaluateDataset(net, test, 7)
	if math.Abs(loss-loss2) > 1e-9 || math.Abs(metric-metric2) > 1e-9 {
		t.Fatal("chunk size must not affect evaluation")
	}
}

func TestResultStringAndCommReduction(t *testing.T) {
	r := &Result{Method: "X", Model: "m", LSSR: 0.9}
	if math.Abs(r.CommReduction()-10) > 1e-9 {
		t.Fatalf("CommReduction: %v", r.CommReduction())
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
	ssp := &Result{LSSR: -1}
	if !math.IsInf(ssp.CommReduction(), 1) {
		t.Fatal("N/A LSSR should map to +Inf reduction")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	cfg := smallConfig(19)
	cfg.MaxSteps = 40
	a := mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	b := mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	if a.BestMetric != b.BestMetric || a.SimTime != b.SimTime || a.LSSR != b.LSSR {
		t.Fatalf("runs must be bit-deterministic: %+v vs %+v", a, b)
	}
}
