package train

import (
	"fmt"
	"os"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
)

// The engine refactor's acceptance bar: every method must reproduce the
// pre-refactor Result bit for bit. The digests below were captured from the
// hand-rolled per-method loops (bsp.go/selsync.go/fedavg.go/ssp.go before
// they were collapsed into engine.go) on the loopback fabric; the
// policy-based engine must keep matching them exactly — History, SimTime,
// Deltas, Snapshots, step counters, everything down to the float bits.
//
// Regenerate with SELSYNC_GOLDEN_PRINT=1 go test ./internal/train -run Golden
// (only legitimate after an intentional semantic change to a method).
var goldenDigests = map[string]string{
	"bsp":            "9c4fcec3d9a1b763df209ccc2e608037c354f06df700b476d491d00e0bff5649",
	"local":          "5c1343eecd92c5e3d596aa616975e8bc82abb268b48f53cb589dd6c57b626766",
	"selsync-pa":     "052ebba7db0efed03dbbf75e70a9785294052ab77e183d064f37a894afafeb17",
	"selsync-ga":     "6c2ee040d179d0288dd440482a0d5373a77658ec2dc4be8534b0de202ac681da",
	"fedavg":         "61fd9d21a3df756940119301ab4a43fca2913a3313ea4697381da94cae47b071",
	"ssp":            "4271eb10689d9144a4d4a3f1abd88eb69ec3906b7f8c0f4569e631a9e7f7c8b9",
	"selsync-inject": "984ef4f33cf55e19acf13be3a48385e069222cf4fbb4feec34168d8a8fb647e5",
	"fedavg-partial": "b0e4fe8667536524bd87954235c6106590a1f08a52525449f4215e6d605a97c4",
	"bsp-topk":       "785d09c4966be5ab2039016853d0415a60dba3d96077e646e7868abd98a961ac",
	"bsp-q8":         "c5f4941d7b0342b56c3684b8df022a29f76537f020ad9b42f1c8044d39ee3243",
	"bsp-partial":    "beab0c785ee49d594a36a3c73de66f7eb87b5c37a50468dad86bd965421528db",
}

// goldenCases builds each method's run fresh (configs must not be shared:
// runs mutate nothing outside themselves, but independence keeps the table
// honest).
func goldenCases() []struct {
	name string
	run  func() *Result
} {
	return []struct {
		name string
		run  func() *Result
	}{
		{"bsp", func() *Result {
			cfg := smallConfig(101)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			cfg.TrackDeltas = true
			cfg.SnapshotAtSteps = []int{9, 29}
			return mustRun(cfg, BSPPolicy{})
		}},
		{"local", func() *Result {
			cfg := smallConfig(102)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			cfg.TrackDeltas = true
			return mustRun(cfg, LocalSGDPolicy{})
		}},
		{"selsync-pa", func() *Result {
			cfg := smallConfig(103)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			cfg.TrackDeltas = true
			return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
		}},
		{"selsync-ga", func() *Result {
			cfg := smallConfig(104)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			return mustRun(cfg, SelSyncPolicy{Delta: 0.02, Mode: cluster.GradAgg})
		}},
		{"fedavg", func() *Result {
			cfg := smallConfig(105)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			return mustRun(cfg, &FedAvgPolicy{C: 1, E: 0.5})
		}},
		{"ssp", func() *Result {
			cfg := smallConfig(106)
			cfg.MaxSteps, cfg.EvalEvery = 30, 10
			return mustRun(cfg, &SSPPolicy{Staleness: 3})
		}},
		{"selsync-inject", func() *Result {
			g := data.NewImageGen(8, 1.2, 1.0, 3e3, 107)
			cfg := smallConfig(107)
			cfg.Model = nn.VGGLite(8)
			cfg.Train = g.Dataset("train", 512)
			cfg.Test = g.Dataset("test", 256)
			cfg.MaxSteps, cfg.EvalEvery = 30, 10
			cfg.NonIID = &NonIID{
				LabelsPerWorker: 2,
				Injection:       &data.Injection{Alpha: 0.5, Beta: 0.5},
			}
			return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
		}},
		{"fedavg-partial", func() *Result {
			cfg := smallConfig(108)
			cfg.MaxSteps, cfg.EvalEvery = 40, 10
			return mustRun(cfg, &FedAvgPolicy{C: 0.5, E: 0.25})
		}},
		// The lossy codecs: selection, quantization, error feedback and the
		// downlink round trip all feed the digest, so these pin the codec
		// kernels' bits against a committed value (recorded before the
		// histogram select replaced quickselect), not just loopback-vs-TCP.
		{"bsp-topk", func() *Result { return mustRun(goldenCodecCfg(109, "topk:0.01"), BSPPolicy{}) }},
		{"bsp-q8", func() *Result { return mustRun(goldenCodecCfg(110, "q8"), BSPPolicy{}) }},
		{"bsp-partial", func() *Result { return mustRun(goldenCodecCfg(111, "partial:0.25"), BSPPolicy{}) }},
	}
}

func goldenCodecCfg(seed uint64, codec string) Config {
	cfg := smallConfig(seed)
	cfg.MaxSteps, cfg.EvalEvery = 40, 10
	cfg.Codec = codec
	return cfg
}

func TestGoldenEquivalenceWithPreRefactorLoops(t *testing.T) {
	printMode := os.Getenv("SELSYNC_GOLDEN_PRINT") != ""
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := resultDigest(tc.run())
			if printMode {
				fmt.Printf("GOLDEN\t%q: %q,\n", tc.name, got)
				return
			}
			want, ok := goldenDigests[tc.name]
			if !ok {
				t.Fatalf("no golden digest recorded for %q", tc.name)
			}
			if got != want {
				t.Fatalf("Result diverged from the pre-refactor loop:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// resultDigest is Result.Digest (digest.go) — the hashing moved out of
// this test file so the CLIs and the checkpoint/resume CI smoke can use
// the exact same digest; the goldens below predate the move and keep
// passing unchanged.
func resultDigest(res *Result) string { return res.Digest() }
