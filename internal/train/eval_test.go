package train

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// chunkedEvaluate is evaluation as it was before the test set was cut into
// blocks: one replica walks the dataset in chunk-sized forward passes and
// folds each pass's mean loss with its row count as weight. History and
// every recorded digest were produced by this loop, so it is the reference
// the block-wise evaluator has to reproduce to the bit.
func chunkedEvaluate(net nn.Network, d *data.Dataset, chunk int) (loss, metric float64) {
	var totalLoss float64
	var totalCorrect, totalRows int
	var idx []int
	for start := 0; start < d.N(); start += chunk {
		idx = idx[:0]
		for i := start; i < min(start+chunk, d.N()); i++ {
			idx = append(idx, i)
		}
		x, labels := d.Batch(idx)
		l, correct := net.Evaluate(x, labels)
		totalLoss += l * float64(len(labels))
		totalCorrect += correct
		totalRows += len(labels)
	}
	loss = totalLoss / float64(totalRows)
	if net.Spec().Perplexity {
		return loss, math.Exp(loss)
	}
	return loss, 100 * float64(totalCorrect) / float64(totalRows)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestShardedEvalBitIdentical: on all four zoo models, for test sets whose
// size divides neither the block, the chunk nor the worker count, the
// per-row results and the folded (loss, metric) are the same bits however
// many workers the blocks are sharded over — one to four ranks of a mesh,
// each evaluating only its share and receiving the rest through the
// exchange — and equal the chunk-at-a-time evaluation they replace, at every
// EvalChunk. (Block sizes other than evalBlock are covered where the block
// is a parameter: nn's test of the same name.)
func TestShardedEvalBitIdentical(t *testing.T) {
	chunks := []int{256, 100, 64, 7} // 256 is what EvalChunk 0 defaults to
	for _, name := range nn.ZooNames() {
		f := nn.Zoo()[name]
		for _, testN := range []int{300, 1000} {
			test := data.WorkloadForModel(name, 16, testN, 5).Test
			ref := f.New(11)
			var want [][2]float64
			for _, chunk := range chunks {
				l, m := chunkedEvaluate(ref, test, chunk)
				want = append(want, [2]float64{l, m})
				if gl, gm := EvaluateDataset(ref, test, chunk); !sameBits(gl, l) || !sameBits(gm, m) {
					t.Fatalf("%s/%d chunk %d: EvaluateDataset = (%v, %v), chunked reference (%v, %v)", name, testN, chunk, gl, gm, l, m)
				}
			}
			if l, m := EvaluateDataset(ref, test, 0); !sameBits(l, want[0][0]) || !sameBits(m, want[0][1]) {
				t.Fatalf("%s/%d: EvaluateDataset with chunk 0 is not chunk 256", name, testN)
			}

			type shardRun struct {
				rows  tensor.Vector
				folds [][2]float64
				mine  int
			}
			var wantRows tensor.Vector
			for procs := 1; procs <= 4; procs++ {
				runs, _ := commtest.RunRanksOpts(t, procs, procs, commtest.Options{Loopback: true}, func(rank int, fabric comm.Fabric) shardRun {
					net := f.Build(nil)
					net.Arena().Data.CopyFrom(ref.Arena().Data)
					e := newEvaluator(test, chunks[0], f.Spec)
					e.addReplica(net, nil)
					if procs > 1 {
						e.shardOver(fabric.LocalWorkers(), fabric.Workers())
					}
					e.start(1)
					e.join()
					if e.sharded {
						ids := make([]int, fabric.Workers())
						for i := range ids {
							ids[i] = i
						}
						if err := e.exchange(fabric, ids); err != nil {
							panic(err)
						}
					}
					out := shardRun{rows: e.rows, mine: len(e.mine)}
					for _, chunk := range chunks {
						e.chunk = chunk
						l, m := e.fold()
						out.folds = append(out.folds, [2]float64{l, m})
					}
					return out
				})
				total := 0
				for rank, got := range runs {
					total += got.mine
					if wantRows == nil {
						wantRows = got.rows
					}
					for i := range wantRows {
						if !sameBits(got.rows[i], wantRows[i]) {
							t.Fatalf("%s/%d, %d shards: rank %d holds %v at result index %d, one shard gave %v", name, testN, procs, rank, got.rows[i], i, wantRows[i])
						}
					}
					for c, chunk := range chunks {
						if !sameBits(got.folds[c][0], want[c][0]) || !sameBits(got.folds[c][1], want[c][1]) {
							t.Fatalf("%s/%d, %d shards, chunk %d: rank %d folds to %v, chunked reference %v", name, testN, procs, chunk, rank, got.folds[c], want[c])
						}
					}
				}
				if blocks := (testN + evalBlock - 1) / evalBlock; total != blocks {
					t.Fatalf("%s/%d, %d shards: ranks evaluated %d blocks in total, the test set has %d", name, testN, procs, total, blocks)
				}
			}
		}
	}
}

// TestShardedEvalRunsMatchLoopback: a run whose evaluations are sharded
// over the ranks of a mesh has the loopback run's Result — History included
// — on 2 and 4 ranks, over channels and over TCP. The 100-example test set
// is two blocks for four workers, so on four ranks two of them evaluate
// nothing and still end with every row.
func TestShardedEvalRunsMatchLoopback(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(31)
		idx := make([]int, 100)
		for i := range idx {
			idx[i] = i
		}
		cfg.Test = cfg.Test.Subset("test", idx)
		cfg.MaxSteps, cfg.EvalEvery = 20, 5
		return cfg
	}
	policy := func() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg} }
	e := newEvaluator(mkCfg().Test, 256, mkCfg().Model.Spec)
	empty := 0
	for w := 0; w < 4; w++ {
		if b0, b1 := e.shard(w, 4); b0 == b1 {
			empty++
		}
	}
	if empty != 2 {
		t.Fatalf("%d of 4 workers own no block, the test wants 2", empty)
	}
	want := mustRun(mkCfg(), policy())
	if len(want.History) != 4 {
		t.Fatalf("loopback run recorded %d evaluations, want 4", len(want.History))
	}
	for _, procs := range []int{2, 4} {
		for _, loopback := range []bool{true, false} {
			results, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{Loopback: loopback}, func(rank int, fabric comm.Fabric) *Result {
				cfg := mkCfg()
				cfg.Fabric = fabric
				return mustRun(cfg, policy())
			})
			for rank, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d ranks (channels: %v): rank %d Result diverged from loopback:\n mesh: %+v\n   lb: %+v", procs, loopback, rank, got, want)
				}
			}
		}
	}
}

// startKernelHelpers makes tensor start its process-lifetime fan-out helper
// goroutines now, so that a goroutine count taken afterwards includes them.
func startKernelHelpers() {
	src := tensor.NewVector(1 << 21)
	tensor.CopyAll([]tensor.Vector{tensor.NewVector(len(src))}, src)
}

// waitGoroutines fails the test unless the process gets back down to base
// goroutines: pool workers exit on their own after the channel close that
// stops them, so the count is polled for a moment.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines left, %d before the run\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashInsideEvalExchange: a rank that dies between the evaluation's
// mean reduce and the last row exchange leaves every rank with the typed
// *comm.PeerError and a partial Result within the op timeout — the path a
// fault in the mean reduce takes — and no goroutine behind. Under LocalSGD
// nothing crosses the mesh before the first evaluation, so the first frame
// rank 1 sends after its share of the mean reduce is its first row message.
func TestCrashInsideEvalExchange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // two replicas a rank
	mkCfg := func(fabric comm.Fabric) Config {
		cfg := smallConfig(41)
		cfg.MaxSteps, cfg.EvalEvery = 12, 4
		cfg.Fabric = fabric
		return cfg
	}
	meanFrames, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{Loopback: true}, func(rank int, fabric comm.Fabric) int64 {
		r := newRunner(mkCfg(fabric), "probe", false)
		defer r.cl.Close()
		if _, err := r.meanParams(); err != nil {
			panic(err)
		}
		return fabric.(*comm.Mesh).Endpoint().NetStats().FramesSent
	})
	if meanFrames[1] == 0 {
		t.Fatal("probe: rank 1 sent nothing during the mean reduce")
	}

	startKernelHelpers()
	base := runtime.NumGoroutine()
	type outcome struct {
		res   *Result
		err   error
		evals int
	}
	start := time.Now()
	results, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{
		Loopback:  true,
		OpTimeout: 5 * time.Second,
		Wrap: func(rank int, ep comm.Endpoint) comm.Endpoint {
			if rank != 1 {
				return ep
			}
			return comm.WithFaults(ep, comm.FaultPlan{CrashAtFrame: int(meanFrames[1]) + 1})
		},
	}, func(rank int, fabric comm.Fabric) outcome {
		var out outcome
		job := NewJob(mkCfg(fabric), LocalSGDPolicy{}, WithObserver(ObserverFunc(func(e Event) {
			if _, ok := e.(EvalEvent); ok {
				out.evals++
			}
		})))
		out.res, out.err = job.Run(context.Background())
		return out
	})
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("the faulted run took %v: the survivors waited out more than the op timeout", took)
	}
	for rank, got := range results {
		var pe *comm.PeerError
		if !errors.As(got.err, &pe) {
			t.Fatalf("rank %d: error is not a *comm.PeerError: %v", rank, got.err)
		}
		if rank == 1 && !errors.Is(got.err, comm.ErrCrashed) {
			t.Fatalf("crashed rank's error should wrap ErrCrashed: %v", got.err)
		}
		if got.res == nil || got.res.Steps != 4 || got.res.LocalSteps != 4 {
			t.Fatalf("rank %d: partial Result should hold the 4 steps before the evaluation: %+v", rank, got.res)
		}
		if got.evals != 0 || len(got.res.History) != 0 {
			t.Fatalf("rank %d recorded an evaluation whose rows never all arrived: %+v", rank, got.res.History)
		}
	}
	waitGoroutines(t, base, "after a crash inside the evaluation exchange")
}

// TestEvalLeavesNoGoroutineBehind: evaluation replicas run on the cluster's
// worker pool, so a run that ends normally or is cancelled between two
// evaluations is back at the goroutine count it started from.
func TestEvalLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := smallConfig(42)
	cfg.MaxSteps, cfg.EvalEvery = 12, 4
	startKernelHelpers()
	base := runtime.NumGoroutine()

	mustRun(cfg, LocalSGDPolicy{})
	waitGoroutines(t, base, "after a completed run")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := NewJob(cfg, LocalSGDPolicy{}, WithObserver(ObserverFunc(func(e Event) {
		if s, ok := e.(StepEvent); ok && s.Step == 5 {
			cancel()
		}
	})))
	res, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) || len(res.History) != 1 {
		t.Fatalf("cancelled run: err %v, %d evaluations (want context.Canceled after 1)", err, len(res.History))
	}
	waitGoroutines(t, base, "after a cancelled run")
}

// TestEvalReplicaBuildPanicIsAnError: the evaluation replica is built on a
// goroutine of its own beside the cluster. A panic in that build, or in the
// cluster's, comes back from Run as an error, and no goroutine is left.
func TestEvalReplicaBuildPanicIsAnError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	startKernelHelpers()
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} { // 1: only the evaluation replica is undrawn
		cfg := smallConfig(43)
		cfg.Workers = workers
		build := cfg.Model.Build
		cfg.Model.Build = func(rng *tensor.RNG) *nn.FeedForwardNet {
			if rng == nil {
				panic("undrawn replica refused")
			}
			return build(rng)
		}
		_, err := NewJob(cfg, BSPPolicy{}).Run(context.Background())
		if err == nil || err.Error() != "undrawn replica refused" {
			t.Fatalf("%d workers: Run returned %v, want the build's panic as an error", workers, err)
		}
		waitGoroutines(t, base, "after a refused build")
	}
}
