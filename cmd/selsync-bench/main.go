// Command selsync-bench regenerates the paper's tables and figures and
// measures the raw compute engine.
//
// Usage:
//
//	selsync-bench -exp table1 -scale quick
//	selsync-bench -exp all -scale tiny
//	selsync-bench -steps            # write BENCH_step.json
//	selsync-bench -list
//
// Scales: tiny (seconds), quick (tens of seconds per training experiment),
// full (closest to the paper's 16-worker setup; minutes to hours). See
// EXPERIMENTS.md for what each scale means and how simulated seconds relate
// to wall-clock.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"selsync"
	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
	"selsync/internal/data"
	"selsync/internal/experiments"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/serve"
	"selsync/internal/tensor"
	"selsync/internal/train"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1a…table1) or 'all'")
	scale := flag.String("scale", "tiny", "experiment scale: tiny | quick | full")
	parallel := flag.Int("parallel", 1, "concurrent training runs across the experiment harness (1 = serial)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	steps := flag.Bool("steps", false, "run the zoo step, sync-round and optimizer benchmarks and write machine-readable results")
	stepsOut := flag.String("stepsout", "BENCH_step.json", "output path for -steps results")
	flag.Parse()

	selsync.SetExperimentParallelism(*parallel)

	if *list {
		for _, id := range selsync.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	if *steps {
		if err := runStepBenchmarks(*stepsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var s selsync.ExperimentScale
	switch *scale {
	case "tiny":
		s = selsync.ScaleTiny
	case "quick":
		s = selsync.ScaleQuick
	case "full":
		s = selsync.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want tiny|quick|full)\n", *scale)
		os.Exit(2)
	}

	if *exp == "all" {
		// RunAllExperiments prints the same per-id headers and, under
		// -parallel, schedules every training run in the registry through
		// the shared budget while keeping the output in id order.
		if err := selsync.RunAllExperiments(s, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("\n### %s (%s scale)\n", *exp, *scale)
	if err := selsync.RunExperiment(*exp, s, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// stepBenchResult is one row of BENCH_step.json: the per-step cost of one
// zoo model under the same workload as the BenchmarkXxxStep benchmarks in
// internal/nn, so the perf trajectory is comparable across PRs.
type stepBenchResult struct {
	Name        string  `json:"name"`
	Model       string  `json:"model"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	// WireBytesPerOp is the logical bytes-on-wire one operation moves
	// through the parameter server (push + pull, exact codec framing);
	// only the codec sync-round rows report it.
	WireBytesPerOp int64 `json:"wire_bytes_per_op,omitempty"`
	// Extra holds the custom metrics a benchmark reported (b.ReportMetric):
	// counts that repeat exactly, such as the engine-step rows' pool
	// dispatches per step.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type stepBenchReport struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Benchmarks []stepBenchResult `json:"benchmarks"`
}

// runStepBenchmarks measures one training step (ComputeGradients) for each
// zoo model, the GEMMs of a c100 step shape by shape, one whole engine step
// and one evaluation on that shape, one aggregation round per mode, one
// c100 reduce round per transport, one whole-model optimizer step per
// optimizer family, the
// per-step price of observers, one job build and one job resume per zoo
// model, and the serve daemon's control plane, via testing.Benchmark, and
// writes the results as JSON.
func runStepBenchmarks(outPath string) error {
	benchName := map[string]string{
		"resnet":      "BenchmarkResNetLiteStep",
		"vgg":         "BenchmarkVGGLiteStep",
		"alexnet":     "BenchmarkAlexNetLiteStep",
		"transformer": "BenchmarkTransformerLiteStep",
	}
	report := stepBenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	record := func(name, model string, r testing.BenchmarkResult) {
		res := stepBenchResult{
			Name:        name,
			Model:       model,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
			Extra:       r.Extra,
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Printf("%-30s %12.0f ns/op %8d B/op %6d allocs/op (%d iters)",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
		for unit, v := range res.Extra {
			fmt.Printf(" %g %s", v, unit)
		}
		fmt.Println()
	}
	zoo := nn.Zoo()
	for _, short := range nn.ZooNames() {
		if benchName[short] == "" {
			return fmt.Errorf("selsync-bench: zoo model %q has no step-benchmark name; update runStepBenchmarks", short)
		}
		f := zoo[short]
		net := f.New(1)
		x, labels := nn.StepBenchBatch(f, tensor.NewRNG(2))
		record(benchName[short], f.Spec.Name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.ComputeGradients(x, labels)
			}
		}))
	}

	// GEMM microbenches: the products one c100 step is made of (ResNetLite
	// at width 128, batch 16, 100 classes, evaluation batch 256), the
	// shapes of internal/tensor's BenchmarkMatMul* benchmarks. dst, a and b
	// are rows×cols as the kernel takes them.
	grng := tensor.NewRNG(4)
	for _, g := range []struct {
		name      string
		kernel    func(dst, a, b *tensor.Matrix)
		dst, a, b [2]int
	}{
		{"BenchmarkMatMulDense128", tensor.MatMul, [2]int{16, 128}, [2]int{16, 128}, [2]int{128, 128}},
		{"BenchmarkMatMulATBAccDense128", tensor.MatMulATBAcc, [2]int{128, 128}, [2]int{16, 128}, [2]int{16, 128}},
		{"BenchmarkMatMulABTDense128", tensor.MatMulABT, [2]int{16, 128}, [2]int{16, 128}, [2]int{128, 128}},
		{"BenchmarkMatMulHead100", tensor.MatMul, [2]int{16, 100}, [2]int{16, 128}, [2]int{128, 100}},
		{"BenchmarkMatMulConvStem", tensor.MatMul, [2]int{8, 64}, [2]int{8, 27}, [2]int{27, 64}},
		{"BenchmarkMatMulEval256", tensor.MatMul, [2]int{256, 128}, [2]int{256, 128}, [2]int{128, 128}},
	} {
		dst, a, b := tensor.NewMatrix(g.dst[0], g.dst[1]), tensor.NewMatrix(g.a[0], g.a[1]), tensor.NewMatrix(g.b[0], g.b[1])
		grng.NormVector(a.Data, 0, 1)
		grng.NormVector(b.Data, 0, 1)
		shape := fmt.Sprintf("dst %dx%d, a %dx%d, b %dx%d", g.dst[0], g.dst[1], g.a[0], g.a[1], g.b[0], g.b[1])
		record(g.name, shape, testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				g.kernel(dst, a, b)
			}
		}))
	}

	// Job-construction benches: what a job segment costs around its steps,
	// per zoo model on its paper-matched 4-worker workload (datasets built
	// once, outside the timed loops). JobBuild is a fresh job run under an
	// already-cancelled context — cluster, eval net and engine are built
	// and Run returns at the first step boundary. JobResume is the same
	// under WithResume, cancelled at the RecoveryEvent that follows the
	// restore: what every preempted or restarted segment pays again. They
	// run before the long-lived benchmark clusters below exist, so the
	// allocator cost they report is a job's own.
	lifeP := experiments.Params{Workers: 4, TrainN: 512, TestN: 128, MaxSteps: 8, EvalEvery: 8}
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	for _, short := range nn.ZooNames() {
		wl := experiments.SetupWorkload(short, lifeP, 11)
		lifeCfg := experiments.BaseConfig(wl, lifeP, 11)
		record("BenchmarkJobBuild/"+short, wl.Factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				train.NewJob(lifeCfg, train.BSPPolicy{}).Run(cancelled)
			}
		}))
		src := train.NewJob(lifeCfg, train.BSPPolicy{})
		if _, err := src.Run(context.Background()); err != nil {
			return fmt.Errorf("selsync-bench: %s job for the resume bench: %w", short, err)
		}
		ck, err := src.Checkpoint(context.Background())
		if err != nil {
			return fmt.Errorf("selsync-bench: %s checkpoint for the resume bench: %w", short, err)
		}
		record("BenchmarkJobResume/"+short, wl.Factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, stop := context.WithCancel(context.Background())
				restored := false
				train.NewJob(lifeCfg, train.BSPPolicy{}, train.WithResume(ck),
					train.WithObserver(train.ObserverFunc(func(e train.Event) {
						if _, ok := e.(train.RecoveryEvent); ok {
							restored = true
							stop()
						}
					}))).Run(ctx)
				stop()
				if !restored {
					b.Fatal("resumed job never restored its checkpoint")
				}
			}
		}))
	}

	// Engine-loop benches on the end-to-end benchmark's task shape (c100:
	// ResNetLite(100, 6), four workers, batch 16, 1024 test rows), through
	// the same train.StepBench internal/train's BenchmarkEngineStepSelSync
	// and BenchmarkEvaluateDataset drive: one SelSync-PA step with the pool
	// dispatches it costs, one evaluation as a run pays for it, and the
	// evaluation of a selsync-serve job's 32 test rows.
	for _, shape := range []struct {
		name           string
		classes        int
		workers, testN int
		step           bool // also the shape of the engine-step row
	}{
		{"c100-1024", 100, 4, 1024, true},
		{"serve-32", 10, 2, 32, false},
	} {
		gen := data.NewImageGen(shape.classes, 1.0, 2.0, 3e3, 1)
		cfg := train.Config{
			Model: nn.ResNetLite(shape.classes, 6), Workers: shape.workers, Batch: 16, Seed: 1,
			Train: gen.Dataset("train", 512), Test: gen.Dataset("test", shape.testN),
			Scheme: data.SelDP, Schedule: opt.Constant{Rate: 0.05},
		}
		sb := train.NewStepBench(cfg, train.SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg})
		measure := func(op func(), per string) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				op() // grow the lazily sized buffers, build the replicas
				woken := sb.Dispatches()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.ReportMetric(float64(sb.Dispatches()-woken)/float64(b.N), "dispatches/"+per)
			})
		}
		if shape.step {
			record("BenchmarkEngineStepSelSync", cfg.Model.Spec.Name, measure(sb.Step, "step"))
		}
		record("BenchmarkEvaluateDataset/"+shape.name, cfg.Model.Spec.Name, measure(sb.Evaluate, "eval"))
		sb.Close()
	}

	// Aggregation-round microbenches: one parameter round (push + average
	// + broadcast) and one gradient round on the same 8-worker ResNetLite
	// cluster internal/cluster's BenchmarkSyncRound* use, so the numbers
	// are comparable across PRs.
	factory := nn.ResNetLite(10, 6)
	cl := cluster.New(cluster.Config{
		Workers: 8,
		Model:   factory,
		Opt: func(ps []*nn.Param) opt.Optimizer {
			return opt.NewSGD(ps, 0.9, 4e-4)
		},
		Seed: 7,
	})
	record("BenchmarkSyncRoundParams", factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl.AggregateParams()
		}
	}))
	gradDst := tensor.NewVector(cl.Dim())
	record("BenchmarkSyncRoundGrads", factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl.AggregateGrads(gradDst)
		}
	}))

	// Reduce-round microbenches: one BSP parameter-server round of the
	// end-to-end benchmark's c100 vector on tcp-bsp's layout (two ranks, two
	// workers each), over channel endpoints and over TCP on 127.0.0.1, dense
	// and through tcp-bsp-topk's codec — the rows of internal/comm's
	// BenchmarkReduceRound, with the socket bytes and frames a round moves in
	// extra.
	c100Dim := nn.ParamCount(nn.ResNetLite(100, 6).New(1).Params())
	topk, err := comm.ParseCodec("topk:0.01")
	if err != nil {
		return err
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, row := range []struct {
			suffix string
			codec  comm.Codec
		}{{"", comm.Codec{}}, {"-topk", topk}} {
			record("BenchmarkReduceRound/"+transport+"-2x2"+row.suffix, fmt.Sprintf("c100, %d elements, codec %s", c100Dim, row.codec), testing.Benchmark(func(b *testing.B) {
				commtest.ReduceRound(b, transport == "tcp", row.codec, 2, 2, c100Dim)
			}))
		}
	}

	// Codec sync-round microbenches: one gradient round per payload codec
	// on the same 8-worker ResNetLite cluster, with the exact bytes-on-wire
	// that round moves through the PS alongside ns/op — the wire-efficiency
	// trajectory of the compressed collectives. "none" takes the dense
	// fast path and doubles as the uncompressed baseline.
	for _, spec := range []string{"none", "topk:0.01", "topk:0.1", "q8", "q16", "partial:0.25"} {
		codec, err := comm.ParseCodec(spec)
		if err != nil {
			return fmt.Errorf("selsync-bench: codec %q: %w", spec, err)
		}
		ccl := cluster.New(cluster.Config{
			Workers: 8,
			Model:   factory,
			Opt: func(ps []*nn.Param) opt.Optimizer {
				return opt.NewSGD(ps, 0.9, 4e-4)
			},
			Seed:  7,
			Codec: codec,
		})
		// An untrained cluster's gradients are all zero, the top-k select's
		// degenerate case (every magnitude ties); a round costs what it
		// costs in training only on gradients with a spread.
		fill := tensor.NewRNG(8)
		for _, w := range ccl.Workers {
			fill.NormVector(w.FlatGrads(), 0, 1e-2)
		}
		dst := tensor.NewVector(ccl.Dim())
		ccl.AggregateGrads(dst) // warm the codec state off the measured rounds
		recvBefore, sentBefore := ccl.PS.BytesRecv(), ccl.PS.BytesSent()
		rounds := 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ccl.AggregateGrads(dst)
				rounds++
			}
		})
		wire := int64(0)
		if rounds > 0 {
			wire = (ccl.PS.BytesRecv() - recvBefore + ccl.PS.BytesSent() - sentBefore) / int64(rounds)
		}
		res := stepBenchResult{
			Name:           "BenchmarkSyncRoundCodec/" + spec,
			Model:          factory.Spec.Name,
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			Iterations:     r.N,
			WireBytesPerOp: wire,
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Printf("%-30s %12.0f ns/op %8d B/op %6d allocs/op %10d wire B/op (%d iters)\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.WireBytesPerOp, res.Iterations)
	}

	// Optimizer-step microbenches: one fused whole-arena update per
	// optimizer family over a ResNetLite replica.
	optNet := factory.New(7)
	g := tensor.NewVector(nn.ParamCount(optNet.Params()))
	tensor.NewRNG(8).NormVector(g, 0, 1e-2)
	nn.SetGrads(optNet.Params(), g)
	sgd := opt.NewSGD(optNet.Params(), 0.9, 4e-4)
	record("BenchmarkOptimizerStep/SGD", factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sgd.Step(0.05)
		}
	}))
	adam := opt.NewAdam(optNet.Params())
	record("BenchmarkOptimizerStep/Adam", factory.Spec.Name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adam.Step(1e-3)
		}
	}))

	// Observer-overhead benches: the per-step cost of one whole Job run
	// (a small 4-worker SelSync workload) with no observer, a counting
	// observer (pure event construction + dispatch), and the JSONL sink
	// (construction + encoding). ns/op and allocs are normalized per
	// training step, so "no-observer" doubles as the engine-loop baseline
	// and the deltas are the price of watching.
	gen := selsync.NewImageGen(4, 1.2, 1.0, 3e3, 9)
	trainSet, testSet := gen.Dataset("train", 512), gen.Dataset("test", 256)
	const obsSteps = 64
	obsCfg := selsync.Config{
		Model: selsync.VGGLite(4), Workers: 4, Batch: 16, Seed: 9,
		Train: trainSet, Test: testSet, Scheme: selsync.SelDP,
		MaxSteps: obsSteps, EvalEvery: obsSteps,
	}
	benchJob := func(opts ...selsync.JobOption) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				policy := selsync.SelSyncPolicy{Delta: 0.05, Mode: selsync.ParamAgg}
				if _, err := selsync.NewJob(obsCfg, policy, opts...).Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	recordPerStep := func(name string, r testing.BenchmarkResult) {
		res := stepBenchResult{
			Name:        name,
			Model:       obsCfg.Model.Spec.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N) / obsSteps,
			BytesPerOp:  r.AllocedBytesPerOp() / obsSteps,
			AllocsPerOp: r.AllocsPerOp() / obsSteps,
			Iterations:  r.N,
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Printf("%-30s %12.0f ns/op %8d B/op %6d allocs/op (%d iters)\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
	}
	recordPerStep("BenchmarkJobStep/no-observer", benchJob())
	var eventCount int64
	recordPerStep("BenchmarkJobStep/counting-observer", benchJob(
		selsync.WithObserver(selsync.ObserverFunc(func(selsync.Event) { eventCount++ }))))
	recordPerStep("BenchmarkJobStep/jsonl-observer", benchJob(
		selsync.WithObserver(selsync.NewJSONLObserver(io.Discard))))

	// Scheduler microbenches: the serve daemon's control-plane costs.
	// SubmitAdmit is one submit→admit round (validation, admission event,
	// a schedule pass over ~1k live-or-final jobs, and the queued-cancel
	// finalize that keeps the live set bounded) against a server whose
	// single slot is pinned by a blocked job, so no training runs inside
	// the timed loop. The server is rebuilt every 1024 iterations to keep
	// the history scan deterministic.
	benchSpec := serve.JobSpec{Tenant: "bench", Model: "resnet", Method: "bsp",
		Workers: 1, TrainN: 8, TestN: 4, MaxSteps: 1}
	release := make(chan struct{})
	blocked := func(spec serve.JobSpec, opts ...train.Option) (serve.BuiltJob, error) {
		<-release
		return serve.BuiltJob{}, fmt.Errorf("bench slot released")
	}
	var benchServers []*serve.Server
	var admSrv *serve.Server
	resetAdm := func() {
		admSrv = serve.NewServer(blocked, serve.Options{Slots: 1, QueueLimit: 1 << 20})
		benchServers = append(benchServers, admSrv)
		if _, err := admSrv.Submit(benchSpec); err != nil {
			panic(err)
		}
	}
	record("BenchmarkServeSubmitAdmit", "resnet", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				b.StopTimer()
				resetAdm()
				b.StartTimer()
			}
			id, err := admSrv.Submit(benchSpec)
			if err != nil {
				b.Fatal(err)
			}
			if err := admSrv.Cancel(id); err != nil {
				b.Fatal(err)
			}
		}
	}))
	close(release)
	for _, s := range benchServers {
		s.Close()
	}

	// PreemptResume is one full preemption round-trip on a single-slot
	// server running real jobs: a high-priority 1-step arrival forces the
	// resident victim to checkpoint and park, runs to completion, and the
	// victim resumes from its checkpoint — ns/op is park + preempter run
	// + restore, the scheduling latency a high-priority tenant pays.
	preSrv := serve.NewServer(selsync.NewStandardJobBuilder(), serve.Options{Slots: 1})
	lis := serve.NewPipeListener()
	go preSrv.Serve(lis)
	victim := benchSpec
	victim.Method, victim.MaxSteps, victim.Seed = "selsync", 1<<20, 5
	victim.TrainN, victim.TestN, victim.Workers = 64, 32, 2
	victimID, err := preSrv.Submit(victim)
	if err != nil {
		return err
	}
	conn, err := lis.Dial()
	if err != nil {
		return err
	}
	events := make(chan serve.WireEvent, 1<<16)
	go func() {
		cl := serve.NewClient(conn)
		cl.Events(victimID, 0, func(ev serve.WireEvent) error {
			events <- ev
			return nil
		})
	}()
	hi := benchSpec
	hi.Tenant, hi.Priority, hi.Seed = "vip", 5, 9
	awaitType := func(b *testing.B, want string) {
		for ev := range events {
			if ev.Type == want {
				return
			}
			if ev.Final {
				b.Fatalf("victim finalized (%s) mid-benchmark", ev.Type)
			}
		}
	}
	record("BenchmarkServePreemptResume", "resnet", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := preSrv.Submit(hi); err != nil {
				b.Fatal(err)
			}
			awaitType(b, serve.EvParked)
			awaitType(b, "recovery")
		}
	}))
	preSrv.Close()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
