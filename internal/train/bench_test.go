package train

import (
	"testing"

	"selsync/internal/cluster"
)

// benchEngine builds a runner+engine pair whose evaluation cadence never
// fires, so the benchmark measures the pure step path: batch draw, gradient
// compute, policy decision, synchronization, clock accounting.
func benchEngine(policy SyncPolicy) (*runner, *engine) {
	return benchEngineFor(smallConfig(1), policy)
}

func benchEngineFor(cfg Config, policy SyncPolicy) (*runner, *engine) {
	cfg.MaxSteps = 1 << 30
	cfg.EvalEvery = 1 << 30
	r := newRunner(cfg, "bench", false)
	return r, newEngine(r, policy)
}

// benchmarkEngineStep measures one full engine step under a policy. The
// step path must stay allocation-free (the PR 1/PR 2 bar): buffers, worker
// closures and the Signals are all preallocated, so steady state allocates
// nothing on the BSP/SelSync/local paths.
func benchmarkEngineStep(b *testing.B, policy SyncPolicy) {
	r, e := benchEngine(policy)
	defer r.cl.Close()
	e.step(0) // warm the lazily grown buffers (eval batch, wire scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step(i + 1)
	}
}

func BenchmarkEngineStepBSP(b *testing.B) { benchmarkEngineStep(b, BSPPolicy{}) }

func BenchmarkEngineStepSelSync(b *testing.B) {
	benchmarkEngineStep(b, SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg})
}

func BenchmarkEngineStepLocalSGD(b *testing.B) { benchmarkEngineStep(b, LocalSGDPolicy{}) }
