package selsync_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"selsync"
)

// run is the package comment's quick start as the tests call it:
// NewJob(cfg, policy).Run(ctx) with ordinary error handling.
func run(t *testing.T, cfg selsync.Config, policy selsync.SyncPolicy) *selsync.Result {
	t.Helper()
	res, err := selsync.NewJob(cfg, policy).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFacadeEndToEnd exercises the public API the way the package comment's
// quick start and the quickstart example do: build a workload, train with
// SelSync, compare to BSP.
func TestFacadeEndToEnd(t *testing.T) {
	wload := selsync.WorkloadForModel("resnet", 512, 256, 3)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 2), Workers: 4, Batch: 16, Seed: 3,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 40, EvalEvery: 20,
	}
	sel := run(t, cfg, selsync.SelSyncPolicy{Delta: 0.1, Mode: selsync.ParamAgg})
	bsp := run(t, cfg, selsync.BSPPolicy{})
	if sel.Steps != 40 || bsp.Steps != 40 {
		t.Fatalf("steps: %d / %d", sel.Steps, bsp.Steps)
	}
	if sel.LSSR <= 0 {
		t.Fatalf("SelSync should skip some synchronizations, LSSR=%v", sel.LSSR)
	}
	if !(sel.SimTime < bsp.SimTime) {
		t.Fatalf("SelSync should beat BSP in simulated time: %v vs %v", sel.SimTime, bsp.SimTime)
	}
}

func TestFacadeExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := selsync.RunExperiment("fig2b", selsync.ScaleTiny, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 2b") {
		t.Fatalf("unexpected report: %q", buf.String())
	}
	if err := selsync.RunExperiment("nope", selsync.ScaleTiny, &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if len(selsync.ExperimentIDs()) != 24 {
		t.Fatalf("expected 24 experiments, got %d", len(selsync.ExperimentIDs()))
	}
}

// TestFacadeHybridPolicies drives the policy engine through the public
// surface: a Sync-Switch-style warmup hybrid and the schedule-string
// parser.
func TestFacadeHybridPolicies(t *testing.T) {
	wload := selsync.WorkloadForModel("resnet", 512, 256, 5)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 2), Workers: 4, Batch: 16, Seed: 5,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 30, EvalEvery: 15,
	}
	res := run(t, cfg, &selsync.SwitchPolicy{
		From:   selsync.BSPPolicy{},
		To:     selsync.LocalSGDPolicy{},
		AtStep: 10,
	})
	if res.SyncSteps != 10 || res.LocalSteps != 20 {
		t.Fatalf("switch boundary not respected: %+v", res)
	}

	mk := func(name string) (selsync.SyncPolicy, error) {
		if name == "bsp" {
			return selsync.BSPPolicy{}, nil
		}
		return selsync.LocalSGDPolicy{}, nil
	}
	policy, err := selsync.ParseSchedule("bsp:10,local", mk)
	if err != nil {
		t.Fatal(err)
	}
	sched := run(t, cfg, policy)
	if sched.SyncSteps != 10 || sched.LocalSteps != 20 {
		t.Fatalf("schedule boundary not respected: %+v", sched)
	}
}

func TestFacadeZooAndSchemes(t *testing.T) {
	if len(selsync.Zoo()) != 4 {
		t.Fatal("zoo must have 4 models")
	}
	if selsync.DefDP.String() != "DefDP" || selsync.SelDP.String() != "SelDP" {
		t.Fatal("scheme names wrong")
	}
	if selsync.ParamAgg.String() != "ParamAgg" || selsync.GradAgg.String() != "GradAgg" {
		t.Fatal("agg mode names wrong")
	}
}

// The Example functions below double as documentation and as facade-level
// tests: `go test` verifies their output, so the quickstart snippets in
// README.md can never silently rot.

func ExampleConfig_Validate() {
	var cfg selsync.Config
	fmt.Println(cfg.Validate())

	wload := selsync.WorkloadForModel("resnet", 256, 128, 2)
	cfg = selsync.Config{
		Model: selsync.ResNetLite(10, 2), Workers: -3,
		Train: wload.Train, Test: wload.Test,
	}
	fmt.Println(cfg.Validate())
	// Output:
	// train: Config.Train and Config.Test are required
	// train: Config.Workers must be positive, got -3
}

func ExampleParseSchedule() {
	mk := func(name string) (selsync.SyncPolicy, error) {
		switch name {
		case "bsp":
			return selsync.BSPPolicy{}, nil
		case "selsync":
			return selsync.SelSyncPolicy{Delta: 0.1, Mode: selsync.ParamAgg}, nil
		}
		return nil, fmt.Errorf("unknown method %q", name)
	}
	policy, _ := selsync.ParseSchedule("bsp:200,selsync", mk)
	fmt.Println(policy.Name())

	_, err := selsync.ParseSchedule("bsp:200,", mk)
	fmt.Println(err)
	// Output:
	// Schedule(BSP:200→SelSync(δ=0.1,ParamAgg))
	// train: empty phase in schedule "bsp:200,"
}

func ExampleNewJob() {
	wload := selsync.WorkloadForModel("resnet", 512, 256, 7)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 2), Workers: 4, Batch: 16, Seed: 7,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 20, EvalEvery: 10,
	}
	syncRounds := 0
	job := selsync.NewJob(cfg, selsync.BSPPolicy{},
		selsync.WithObserver(selsync.ObserverFunc(func(e selsync.Event) {
			if _, ok := e.(selsync.SyncEvent); ok {
				syncRounds++
			}
		})))
	res, err := job.Run(context.Background())
	fmt.Println(err, res.Steps, syncRounds)
	// Output: <nil> 20 20
}

func ExampleJob_Checkpoint() {
	wload := selsync.WorkloadForModel("resnet", 512, 256, 8)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 2), Workers: 4, Batch: 16, Seed: 8,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 20, EvalEvery: 10,
	}
	full, _ := selsync.NewJob(cfg, selsync.LocalSGDPolicy{}).Run(context.Background())

	// Interrupt at half the budget, checkpoint, resume to the end.
	halfCfg := cfg
	halfCfg.MaxSteps = 10
	halfJob := selsync.NewJob(halfCfg, selsync.LocalSGDPolicy{})
	halfJob.Run(context.Background())
	ck, _ := halfJob.Checkpoint(context.Background())

	resumed, _ := selsync.NewJob(cfg, selsync.LocalSGDPolicy{}, selsync.WithResume(ck)).Run(context.Background())
	fmt.Println("resumed from step", ck.Step, "- bit-identical:", resumed.Digest() == full.Digest())
	// Output: resumed from step 10 - bit-identical: true
}
