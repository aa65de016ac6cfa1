package train

import (
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// countDraws wraps a factory so that draws counts the builds that drew
// initial weights (Build with a non-nil rng, which is what New is).
func countDraws(f nn.Factory, draws *atomic.Int64) nn.Factory {
	build := f.Build
	f.Build = func(rng *tensor.RNG) *nn.FeedForwardNet {
		if rng != nil {
			draws.Add(1)
		}
		return build(rng)
	}
	return f
}

// alexConfig is smallConfig on AlexNetLite, a model with a layer-owned
// Dropout stream, over 40 steps.
func alexConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.Model = nn.AlexNetLite(4)
	cfg.MaxSteps, cfg.EvalEvery = 40, 8
	return cfg
}

// TestInitialStateDrawnOncePerRank pins who draws: one build per
// cluster.New — four workers and the eval net on loopback, each rank of a
// mesh — and none at all on a resumed job or when elastic membership
// re-materializes replicas (loopback reset, rank-0 adoption, hot rejoin).
func TestInitialStateDrawnOncePerRank(t *testing.T) {
	t.Run("loopback", func(t *testing.T) {
		var draws atomic.Int64
		cfg := alexConfig(141)
		cfg.Model = countDraws(cfg.Model, &draws)
		job := NewJob(cfg, BSPPolicy{})
		if _, err := job.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := draws.Load(); got != 1 {
			t.Fatalf("a fresh 4-worker job drew initial weights %d times, want 1", got)
		}

		ck, err := job.Checkpoint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxSteps = 48
		if _, err := NewJob(cfg, BSPPolicy{}, WithResume(ck)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := draws.Load(); got != 1 {
			t.Fatalf("a resumed job drew initial weights %d times, want 0", got-1)
		}
	})
	t.Run("mesh", func(t *testing.T) {
		var draws [2]atomic.Int64
		commtest.RunRanksOpts(t, 2, 4, commtest.Options{Loopback: true}, func(rank int, fabric comm.Fabric) *Result {
			cfg := alexConfig(142)
			cfg.Model = countDraws(cfg.Model, &draws[rank])
			cfg.Fabric = fabric
			return mustRun(cfg, BSPPolicy{})
		})
		for rank := range draws {
			if got := draws[rank].Load(); got != 1 {
				t.Fatalf("rank %d drew initial weights %d times, want 1", rank, got)
			}
		}
	})
	t.Run("elastic", func(t *testing.T) {
		mkCfg := func(draws *atomic.Int64) Config {
			cfg := alexConfig(143)
			cfg.Membership = churnPlan
			cfg.Model = countDraws(cfg.Model, draws)
			return cfg
		}
		var lbDraws atomic.Int64
		want, err := NewJob(mkCfg(&lbDraws), faultPolicy()).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := lbDraws.Load(); got != 1 {
			t.Fatalf("loopback churn run drew initial weights %d times, want 1 (ResetWorkers must not draw)", got)
		}

		var draws [4]atomic.Int64
		results, _ := commtest.RunRanksOpts(t, 4, 4, commtest.Options{Loopback: true}, func(rank int, fabric comm.Fabric) *Result {
			cfg := mkCfg(&draws[rank])
			cfg.Fabric = fabric
			var opts []Option
			if rank == 2 {
				opts = append(opts, WithRejoin())
			}
			res, err := NewJob(cfg, faultPolicy(), opts...).Run(context.Background())
			if err != nil {
				panic(err)
			}
			return res
		})
		for rank, got := range results {
			if n := draws[rank].Load(); n != 1 {
				t.Fatalf("rank %d drew initial weights %d times, want 1 (adoption and rejoin must not draw)", rank, n)
			}
			// Churn ≡ loopback on a model whose replicas carry a
			// Dropout stream through adoption and the rejoin transfer.
			if got.Digest() != want.Digest() {
				t.Fatalf("rank %d churn digest %s != loopback churn digest %s", rank, got.Digest(), want.Digest())
			}
		}
	})
}

// oldFormatConfig is the run that produced testdata/resnet_pre_layerrng.checkpoint
// at its step 10, on the commit before WorkerCheckpoint.LayerRNG existed
// (SelSync-PA δ=0.01): the smallest ResNetLite, so the fixture stays a few
// tens of kilobytes.
func oldFormatConfig() Config {
	cfg := smallConfig(147)
	cfg.Model = nn.ResNetLite(4, 0)
	cfg.Workers = 2
	cfg.MaxSteps, cfg.EvalEvery = 20, 5
	return cfg
}

// TestOldFormatCheckpoint: a checkpoint file written before the LayerRNG
// field existed decodes with the field nil. That still resumes a model
// without stateful layers bit-identically, and is refused — naming the
// field — for a model that owns a layer stream, where resuming would
// silently restart the Dropout masks.
func TestOldFormatCheckpoint(t *testing.T) {
	ck, err := LoadCheckpoint(filepath.Join("testdata", "resnet_pre_layerrng.checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 10 || len(ck.Hosted) != 2 || ck.Hosted[0].LayerRNG != nil {
		t.Fatalf("fixture: step %d, %d hosted, LayerRNG %v", ck.Step, len(ck.Hosted), ck.Hosted[0].LayerRNG)
	}
	want, err := NewJob(oldFormatConfig(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewJob(oldFormatConfig(), faultPolicy(), WithResume(ck)).Run(context.Background())
	if err != nil {
		t.Fatalf("an old-format checkpoint must still resume a ResNetLite run: %v", err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("resumed-from-old-file digest %s != uninterrupted digest %s", got.Digest(), want.Digest())
	}

	// What an old AlexNetLite file decodes to: no layer streams on any
	// hosted worker (gob transmits an empty field and an absent one alike).
	short := alexConfig(148)
	short.MaxSteps = 16
	job := NewJob(short, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	alex, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range alex.Hosted {
		alex.Hosted[i].LayerRNG = nil
	}
	_, err = NewJob(alexConfig(148), BSPPolicy{}, WithResume(alex)).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "WorkerCheckpoint.LayerRNG") {
		t.Fatalf("resuming AlexNetLite without layer streams must be refused naming the field, got: %v", err)
	}
}
