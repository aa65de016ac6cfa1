package train

import (
	"fmt"
	"runtime"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/tensor"
)

// wideMLP is a model whose GEMMs are large enough for the tensor kernels to
// fan out: at batch 16 the 768×768 layer is 9.4M multiply-adds per product,
// well past tensor's parallel threshold, which the zoo models at this
// repository's scale (width 128–256) stay under. Its 740k parameters put the
// fabric's Average and CopyAll past the threshold as well.
func wideMLP(classes int) nn.Factory {
	spec := nn.ModelSpec{
		Name:    fmt.Sprintf("WideMLP(c=%d)", classes),
		Classes: classes, TopK: 1,
		WireBytes: 6e6, FlopsPerSample: 1.5e6,
		MemBytesBase: 1e7, MemBytesPerEx: 1e4,
	}
	return nn.Factory{Spec: spec, Build: func(rng *tensor.RNG) *nn.FeedForwardNet {
		const width = 768
		net := nn.NewFeedForwardNet(nn.NewSequential(
			nn.NewDense("fc1", nn.ImgFeatures, width),
			nn.NewReLU(),
			nn.NewDense("fc2", width, width),
			nn.NewReLU(),
			nn.NewDense("head", width, classes),
		), spec)
		nn.Init(rng, net.Seq)
		return net
	}}
}

// wideConfig is smallConfig on wideMLP with two workers, on a 32-class task
// hard enough that losses stay generic floats (smallConfig's four classes
// separate within a few steps, after which every run reports the same
// saturated numbers whatever its kernels round to).
func wideConfig(seed uint64) Config {
	g := data.NewImageGen(32, 1.0, 2.0, 3e3, seed)
	cfg := smallConfig(seed)
	cfg.Model = wideMLP(32)
	cfg.Train = g.Dataset("train", 512)
	cfg.Test = g.Dataset("test", 256)
	cfg.Workers = 2
	cfg.Schedule = opt.Constant{Rate: 0.01}
	return cfg
}

// c100Config is the shape of the benchmark's training task: ResNetLite(100,
// 6), four workers, batch 16. Its training step stays under tensor's
// parallel threshold, GEMMs and the 213k-parameter Average/CopyAll alike,
// and so do its 64-row evaluation blocks: an evaluation uses its cores
// through several replicas, not through the kernels' fan-out.
func c100Config(seed uint64) Config {
	g := data.NewImageGen(100, 1.0, 2.0, 3e3, seed)
	cfg := smallConfig(seed)
	cfg.Model = nn.ResNetLite(100, 6)
	cfg.Train = g.Dataset("train", 512)
	cfg.Test = g.Dataset("test", 256)
	return cfg
}

// TestDigestIndependentOfGOMAXPROCS is the machine-independence contract:
// the same job yields the same Result digest at any GOMAXPROCS, on a model
// wide enough that the GEMM, Average and CopyAll kernels all take their
// parallel path when more than one processor is available.
func TestDigestIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
		codec  string
	}{
		{"bsp", BSPPolicy{}, ""},
		{"selsync", SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}, ""},
		{"bsp-topk", BSPPolicy{}, "topk:0.01"},
		// Every SSP event crosses Average's fan-out on the 740k-element
		// gradient; SSPPolicy holds no per-run state, so one value serves.
		{"ssp", &SSPPolicy{Staleness: 2}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				cfg := wideConfig(7)
				cfg.MaxSteps, cfg.EvalEvery = 8, 4
				cfg.Codec = tc.codec
				got := mustRun(cfg, tc.policy).Digest()
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("digest at GOMAXPROCS=%d is %s, at GOMAXPROCS=1 it was %s", procs, got, want)
				}
			}
		})
	}
}
