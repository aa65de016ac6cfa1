package train

import (
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
)

// benchEngine builds a runner+engine pair whose evaluation cadence never
// fires, so the benchmark measures the pure step path: batch draw, gradient
// compute, policy decision, synchronization, clock accounting.
func benchEngine(policy SyncPolicy) (*runner, *engine) {
	return benchEngineFor(smallConfig(1), policy)
}

func benchEngineFor(cfg Config, policy SyncPolicy) (*runner, *engine) {
	s := NewStepBench(cfg, policy)
	return s.r, s.e
}

// benchmarkEngineStep measures one full engine step under a policy, and
// counts how often it wakes the worker pool. The step path must stay
// allocation-free (the PR 1/PR 2 bar): buffers, worker closures and the
// Signals are all preallocated, so steady state allocates nothing on the
// BSP/SelSync/local paths.
func benchmarkEngineStep(b *testing.B, cfg Config, policy SyncPolicy) {
	s := NewStepBench(cfg, policy)
	defer s.Close()
	s.Step() // warm the lazily grown buffers (wire scratch, layer outputs)
	woken := s.Dispatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(s.Dispatches()-woken)/float64(b.N), "dispatches/step")
}

func BenchmarkEngineStepBSP(b *testing.B) { benchmarkEngineStep(b, smallConfig(1), BSPPolicy{}) }

// BenchmarkEngineStepSelSync is the benchmark's own step: SelSync-PA on the
// c100 shape, one pool dispatch a step.
func BenchmarkEngineStepSelSync(b *testing.B) {
	benchmarkEngineStep(b, c100Config(1), SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg})
}

func BenchmarkEngineStepLocalSGD(b *testing.B) {
	benchmarkEngineStep(b, smallConfig(1), LocalSGDPolicy{})
}

// BenchmarkEvaluateDataset measures one evaluation as a run pays for it —
// mean reduce, this rank's blocks on its replicas, fold — on the benchmark's
// two shapes: the c100 task's 1024 test rows over four workers, and a
// selsync-serve job's 32 rows over two (one block: no second replica, no
// dispatch).
func BenchmarkEvaluateDataset(b *testing.B) {
	for _, shape := range []struct {
		name    string
		model   nn.Factory
		workers int
		testN   int
	}{
		{"c100-1024", nn.ResNetLite(100, 6), 4, 1024},
		{"serve-32", nn.ResNetLite(10, 6), 2, 32},
	} {
		b.Run(shape.name, func(b *testing.B) {
			gen := data.NewImageGen(shape.model.Spec.Classes, 1.0, 2.0, 3e3, 1)
			cfg := smallConfig(1)
			cfg.Model, cfg.Workers = shape.model, shape.workers
			cfg.Train, cfg.Test = gen.Dataset("train", 512), gen.Dataset("test", shape.testN)
			s := NewStepBench(cfg, LocalSGDPolicy{})
			defer s.Close()
			s.Evaluate() // build the replicas, grow their buffers
			woken := s.Dispatches()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Evaluate()
			}
			b.ReportMetric(float64(s.Dispatches()-woken)/float64(b.N), "dispatches/eval")
		})
	}
}
