package train

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
)

// resumeCase runs the checkpoint/resume acceptance bar for one policy:
// a full run, an interrupted run checkpointed at its end, and a resumed
// run that must reproduce the full Result via reflect.DeepEqual.
// interruptAt must be a multiple of EvalEvery: a completed short run
// evaluates at its own final step, so an unaligned budget would bake an
// extra History point into the checkpoint (cancellation-based
// interruption — TestCheckpointResumeAfterCancellation — has no such
// constraint, since a cancelled boundary runs no final eval).
func resumeCase(t *testing.T, mkCfg func() Config, mkPolicy func() SyncPolicy, interruptAt int) {
	t.Helper()
	full, err := NewJob(mkCfg(), mkPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	shortCfg := mkCfg()
	shortCfg.MaxSteps = interruptAt
	shortJob := NewJob(shortCfg, mkPolicy())
	if _, err := shortJob.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := shortJob.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != interruptAt {
		t.Fatalf("checkpoint at step %d, want %d", ck.Step, interruptAt)
	}

	// Round-trip through the wire format: resume must not depend on
	// sharing memory with the producing job.
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewJob(mkCfg(), mkPolicy(), WithResume(ck2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatalf("resumed Result diverged from uninterrupted run:\n resumed: %+v\n    full: %+v", resumed, full)
	}
	if resumed.Digest() != full.Digest() {
		t.Fatal("digests disagree despite DeepEqual — digest bug")
	}
}

// TestCheckpointResumeBitIdentical covers every step-based policy family,
// including optimizer state (SGD momentum), tracker state (SelSync votes),
// RNG streams (FedAvg participant picks, device jitter, the Dropout streams
// AlexNetLite and the Transformer own), composite-policy state and the
// delta/snapshot series.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	base := func(seed uint64) func() Config {
		return func() Config {
			cfg := smallConfig(seed)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			return cfg
		}
	}
	t.Run("bsp-with-diagnostics", func(t *testing.T) {
		mk := base(81)
		mkCfg := func() Config {
			cfg := mk()
			cfg.TrackDeltas = true
			cfg.SnapshotAtSteps = []int{9, 29}
			return cfg
		}
		resumeCase(t, mkCfg, func() SyncPolicy { return BSPPolicy{} }, 20)
	})
	t.Run("selsync-pa", func(t *testing.T) {
		resumeCase(t, base(82), func() SyncPolicy {
			return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}
		}, 20)
	})
	t.Run("selsync-ga", func(t *testing.T) {
		resumeCase(t, base(83), func() SyncPolicy {
			return SelSyncPolicy{Delta: 0.02, Mode: cluster.GradAgg}
		}, 20)
	})
	t.Run("localsgd", func(t *testing.T) {
		mk := base(84)
		mkCfg := func() Config {
			cfg := mk()
			cfg.TrackDeltas = true
			return cfg
		}
		resumeCase(t, mkCfg, func() SyncPolicy { return LocalSGDPolicy{} }, 20)
	})
	t.Run("fedavg-partial", func(t *testing.T) {
		resumeCase(t, base(85), func() SyncPolicy {
			return &FedAvgPolicy{C: 0.5, E: 0.25}
		}, 20)
	})
	t.Run("switch-across-boundary", func(t *testing.T) {
		// Interrupt after the switch fired: the flag must survive.
		resumeCase(t, base(86), func() SyncPolicy {
			return &SwitchPolicy{From: BSPPolicy{}, To: SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}, AtStep: 10}
		}, 20)
	})
	t.Run("switch-before-boundary", func(t *testing.T) {
		resumeCase(t, base(87), func() SyncPolicy {
			return &SwitchPolicy{From: BSPPolicy{}, To: LocalSGDPolicy{}, AtStep: 30}
		}, 20)
	})
	t.Run("schedule", func(t *testing.T) {
		resumeCase(t, base(88), func() SyncPolicy {
			return &SchedulePolicy{Phases: []PolicyPhase{
				{Policy: BSPPolicy{}, Steps: 10},
				{Policy: &FedAvgPolicy{C: 1, E: 0.5}, Steps: 15},
				{Policy: LocalSGDPolicy{}},
			}}
		}, 20)
	})
	t.Run("noniid-injection", func(t *testing.T) {
		// Materialize the datasets once: generators are stateful streams,
		// and every mkCfg call must describe the *same* run.
		g := data.NewImageGen(8, 1.2, 1.0, 3e3, 89)
		trainSet, testSet := g.Dataset("train", 512), g.Dataset("test", 256)
		mkCfg := func() Config {
			cfg := smallConfig(89)
			cfg.Model = nn.VGGLite(8)
			cfg.Train = trainSet
			cfg.Test = testSet
			cfg.MaxSteps, cfg.EvalEvery = 30, 10
			cfg.NonIID = &NonIID{
				LabelsPerWorker: 2,
				Injection:       &data.Injection{Alpha: 0.5, Beta: 0.5},
			}
			return cfg
		}
		resumeCase(t, mkCfg, func() SyncPolicy {
			return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}
		}, 10)
	})
	// Models whose layers own an RNG stream: without
	// WorkerCheckpoint.LayerRNG the resumed run replays its Dropout masks
	// from the initial stream state and diverges.
	t.Run("alexnet", func(t *testing.T) {
		resumeCase(t, func() Config { return alexConfig(144) }, func() SyncPolicy { return BSPPolicy{} }, 16)
	})
	t.Run("transformer", func(t *testing.T) {
		g := data.NewTextGen(nn.LMVocab, 6, 1e2, 146)
		trainSet := g.Dataset("train", 256, nn.LMSeqLen)
		testSet := g.Dataset("test", 64, nn.LMSeqLen)
		mkCfg := func() Config {
			cfg := smallConfig(146)
			cfg.Model = nn.TransformerLite()
			cfg.Train, cfg.Test = trainSet, testSet
			cfg.Workers, cfg.Batch = 2, 8
			cfg.MaxSteps, cfg.EvalEvery = 12, 4
			return cfg
		}
		resumeCase(t, mkCfg, func() SyncPolicy {
			return SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg}
		}, 8)
	})
}

// TestCheckpointResumeAfterCancellation is the SIGINT story end to end:
// cancel mid-run at a deterministic step, checkpoint the cancelled job,
// resume, and land bit-identically on the uninterrupted Result.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(90)
		cfg.MaxSteps, cfg.EvalEvery = 40, 10
		return cfg
	}
	mkPolicy := func() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg} }
	full, err := NewJob(mkCfg(), mkPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := NewJob(mkCfg(), mkPolicy(), WithObserver(ObserverFunc(func(e Event) {
		if se, ok := e.(StepEvent); ok && se.Step == 24 {
			cancel()
		}
	})))
	if _, err := job.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 25 {
		t.Fatalf("cancelled at step boundary %d, want 25", ck.Step)
	}

	// File round-trip (the CLI flow: SIGINT → save → load → resume).
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewJob(mkCfg(), mkPolicy(), WithResume(loaded)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatalf("resumed-after-cancel Result diverged:\n resumed: %+v\n    full: %+v", resumed, full)
	}
}

// TestMidRunCheckpoint: Job.Checkpoint during a live run captures at a
// step boundary, and resuming from it reproduces the rest of the run.
// The Checkpoint goroutine is deliberately launched before Run is even
// entered: Checkpoint waits for the run to start, so this races nothing.
func TestMidRunCheckpoint(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(91)
		cfg.MaxSteps, cfg.EvalEvery = 40, 10
		return cfg
	}
	full, err := NewJob(mkCfg(), BSPPolicy{}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	job := NewJob(mkCfg(), BSPPolicy{})
	done := make(chan struct{})
	var ck *Checkpoint
	var ckErr error
	go func() {
		defer close(done)
		ck, ckErr = job.Checkpoint(context.Background()) // waits for the run, then a boundary
	}()
	res, err := job.Run(context.Background())
	<-done
	if err != nil || ckErr != nil {
		t.Fatalf("run err %v, checkpoint err %v", err, ckErr)
	}
	if ck.Step < 0 || ck.Step > 40 {
		t.Fatalf("implausible checkpoint step %d", ck.Step)
	}
	resumed, err := NewJob(mkCfg(), BSPPolicy{}, WithResume(ck)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, res) || !reflect.DeepEqual(resumed, full) {
		t.Fatal("mid-run checkpoint resume diverged")
	}
}

// TestCheckpointResumeTCP extends the bit-identity bar across real TCP
// ranks: each rank checkpoints its shortened run and resumes it, and every
// resumed rank Result must equal the uninterrupted loopback run.
func TestCheckpointResumeTCP(t *testing.T) {
	for name, mkCfg := range map[string]func() Config{
		"vgg": func() Config {
			cfg := smallConfig(92)
			cfg.MaxSteps = 24
			cfg.EvalEvery = 8
			return cfg
		},
		"alexnet": func() Config { // every rank restores its own Dropout streams
			cfg := alexConfig(145)
			cfg.MaxSteps = 24
			return cfg
		},
	} {
		t.Run(name, func(t *testing.T) {
			mkPolicy := func() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg} }
			want, err := NewJob(mkCfg(), mkPolicy()).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			results, _ := runTCPRanks(t, 2, 4, mkCfg, func(cfg Config) *Result {
				shortCfg := cfg
				shortCfg.MaxSteps = 16
				shortJob := NewJob(shortCfg, mkPolicy())
				if _, err := shortJob.Run(context.Background()); err != nil {
					panic(err)
				}
				ck, err := shortJob.Checkpoint(context.Background())
				if err != nil {
					panic(err)
				}
				res, err := NewJob(cfg, mkPolicy(), WithResume(ck)).Run(context.Background())
				if err != nil {
					panic(err)
				}
				return res
			})
			for rank, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d resumed Result diverged from loopback:\n tcp: %+v\n  lb: %+v", rank, got, want)
				}
			}
		})
	}
}

// TestCheckpointMismatchErrors: a checkpoint cannot silently resume under
// a different run shape.
func TestCheckpointMismatchErrors(t *testing.T) {
	cfg := smallConfig(93)
	cfg.MaxSteps, cfg.EvalEvery = 10, 5
	job := NewJob(cfg, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		cfg    func() Config
		policy SyncPolicy
	}{
		"wrong-policy": {func() Config { return cfg }, LocalSGDPolicy{}},
		"wrong-seed": {func() Config {
			c := smallConfig(94)
			c.MaxSteps, c.EvalEvery = 10, 5
			return c
		}, BSPPolicy{}},
		"wrong-workers": {func() Config {
			c := cfg
			c.Workers = 2
			return c
		}, BSPPolicy{}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewJob(tc.cfg(), tc.policy, WithResume(ck)).Run(context.Background()); err == nil {
				t.Fatal("mismatched resume must error")
			}
		})
	}

	// Corrupt bytes must be rejected before gob sees them.
	if _, err := DecodeCheckpoint(bytes.NewReader([]byte("not a checkpoint at all........"))); err == nil {
		t.Fatal("bad magic must error")
	}
}

// TestCheckpointBeforeRun: Checkpoint waits for the run to start, and the
// context bounds that wait — so a job that is never Run errors instead of
// hanging.
func TestCheckpointBeforeRun(t *testing.T) {
	job := NewJob(smallConfig(95), BSPPolicy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := job.Checkpoint(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpoint before Run with a dead ctx: want context.Canceled, got %v", err)
	}
}

// TestCheckpointAfterFailedRun: a Run that failed — policy Init error,
// resume mismatch — leaves nothing to checkpoint. Checkpoint must error
// rather than dereference half-built policy state (FedAvg's pick RNG only
// exists after a successful Init) or hand back a fresh step-0 snapshot a
// CLI would happily save over a good checkpoint file.
func TestCheckpointAfterFailedRun(t *testing.T) {
	t.Run("init-error", func(t *testing.T) {
		job := NewJob(smallConfig(98), &FedAvgPolicy{C: 0, E: 0.5})
		if _, err := job.Run(context.Background()); err == nil {
			t.Fatal("FedAvg C=0 must fail Init")
		}
		if _, err := job.Checkpoint(context.Background()); err == nil {
			t.Fatal("checkpoint after a failed Run must error")
		}
	})
	t.Run("resume-mismatch", func(t *testing.T) {
		cfg := smallConfig(99)
		cfg.MaxSteps, cfg.EvalEvery = 10, 5
		src := NewJob(cfg, BSPPolicy{})
		if _, err := src.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ck, err := src.Checkpoint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		job := NewJob(cfg, LocalSGDPolicy{}, WithResume(ck))
		if _, err := job.Run(context.Background()); err == nil {
			t.Fatal("mismatched resume must fail")
		}
		if _, err := job.Checkpoint(context.Background()); err == nil {
			t.Fatal("checkpoint after a failed resume must error, not snapshot a fresh run")
		}
	})
}

// TestCheckpointExpiredCtxAfterRun: reusing the run's own expired context
// post-run must still capture — a started/finished run wins over a
// simultaneously-done ctx (select picks ready cases randomly, so any
// regression here is a flake; the loop hunts it).
func TestCheckpointExpiredCtxAfterRun(t *testing.T) {
	cfg := smallConfig(97)
	cfg.MaxSteps, cfg.EvalEvery = 10, 5
	job := NewJob(cfg, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		if _, err := job.Checkpoint(ctx); err != nil {
			t.Fatalf("attempt %d: post-run checkpoint with a done ctx: %v", i, err)
		}
	}
}

// TestResumeOfCompletedRunIsIdempotent: checkpointing a finished run and
// resuming it under the same budget trains zero further steps and
// reproduces the same Result.
func TestResumeOfCompletedRunIsIdempotent(t *testing.T) {
	cfg := smallConfig(96)
	cfg.MaxSteps, cfg.EvalEvery = 20, 10
	job := NewJob(cfg, BSPPolicy{})
	want, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewJob(cfg, BSPPolicy{}, WithResume(ck)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-resumed Result diverged:\n got: %+v\nwant: %+v", got, want)
	}
}
