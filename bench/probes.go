package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/experiments"
	"selsync/internal/gradstat"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/tensor"
	"selsync/internal/train"
)

// timeProbe takes n samples of inner calls of fn each and returns the
// median nanoseconds per call.
func timeProbe(n, inner int, fn func()) float64 {
	fn() // first call sizes lazily allocated scratch
	samples := make([]float64, n)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t0)) / float64(inner)
	}
	return median(samples)
}

// allocProbe returns mallocs and bytes allocated per call of fn.
func allocProbe(calls int, fn func()) (allocs, bytes float64) {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls), float64(b.TotalAlloc-a.TotalAlloc) / float64(calls)
}

// runProbes measures every layer below the training loop in isolation, on
// the shapes task t trains with: batch × width GEMMs, parameter-sized
// vectors, a 4-worker loopback cluster. Each number is what one call costs
// when nothing else runs, so it bounds what the layer can save end to end.
func runProbes(res *result, t task, seed uint64, probeSamples int) {
	const width = 128 // ResNetLite's block width
	rng := tensor.NewRNG(seed)
	randMat := func(r, c int) *tensor.Matrix {
		m := tensor.NewMatrix(r, c)
		rng.NormVector(m.Data, 0, 1)
		return m
	}
	randVec := func(n int) tensor.Vector {
		v := tensor.NewVector(n)
		rng.NormVector(v, 0, 1)
		return v
	}
	ns := func(name string, inner int, fn func()) {
		res.emit(name, timeProbe(probeSamples, inner, fn), probeSamples)
	}

	// tensor: the kernels a step is made of.
	x, wgt, dy := randMat(t.batch, width), randMat(width, width), randMat(t.batch, width)
	out, dw := tensor.NewMatrix(t.batch, width), tensor.NewMatrix(width, width)
	ns("tensor.matmul_ns", 200, func() { tensor.MatMul(out, x, wgt) })
	ns("tensor.matmul_atb_acc_ns", 200, func() { tensor.MatMulATBAcc(dw, x, dy) })
	ns("tensor.matmul_abt_ns", 200, func() { tensor.MatMulABT(out, dy, wgt) })
	img := randVec(nn.ImgFeatures)
	cols := tensor.NewMatrix(nn.ImgChannels*9, nn.ImgSize*nn.ImgSize)
	ns("tensor.im2col_ns", 500, func() { tensor.Im2Col(cols, img, nn.ImgChannels, nn.ImgSize, nn.ImgSize, 3, 1) })

	model := nn.ResNetLite(t.classes, t.blocks).New(seed)
	dim := nn.ParamCount(model.Params())
	replicas := make([]tensor.Vector, t.workers)
	for i := range replicas {
		replicas[i] = randVec(dim)
	}
	mean := tensor.NewVector(dim)
	ns("tensor.average_ns", 20, func() { tensor.Average(mean, replicas) })
	ns("tensor.copyall_ns", 20, func() { tensor.CopyAll(replicas, mean) })
	vel, grad := tensor.NewVector(dim), randVec(dim)
	ns("tensor.sgd_momentum_ns", 20, func() { tensor.SGDMomentum(mean, grad, vel, t.lr, 0.9, t.weightDecay) })
	var idx []uint32
	var scratch []float64
	ns("tensor.topk_select_ns", 3, func() { idx, scratch = tensor.TopKSelect(grad, dim/100, idx, scratch) })
	chunk, q := grad[:comm.ChunkElems], make([]byte, comm.ChunkElems)
	var lo, scale float64
	ns("tensor.quantize8_ns", 20, func() { lo, scale = tensor.QuantizeChunk(chunk, 8, q) })
	deq := tensor.NewVector(comm.ChunkElems)
	ns("tensor.dequantize8_ns", 20, func() { tensor.DequantizeChunk(deq, 8, q, lo, scale) })

	// data, nn, opt, gradstat: one worker's share of a step.
	t0 := time.Now()
	ds := t.datasets(seed)
	res.emit("data.gen_ms", ms(time.Since(t0)), 1)
	sampler := data.NewSampler(data.Partitions(data.SelDP, t.trainN, t.workers, seed)[0], t.batch)
	batchIdx := make([]int, 0, t.batch)
	ns("data.sampler_next_ns", 2000, func() { batchIdx = sampler.NextInto(batchIdx) })
	var bx *tensor.Matrix
	var labels []int
	ns("data.batch_into_ns", 500, func() { bx, labels = ds.train.BatchInto(bx, labels, batchIdx) })
	ns("nn.compute_gradients_ns", 5, func() { model.ComputeGradients(bx, labels) })
	ns("nn.evaluate_ns", 1, func() { train.EvaluateDataset(model, ds.test, 0) })
	sgd := opt.NewSGD(model.Params(), 0.9, t.weightDecay)
	ns("opt.sgd_step_ns", 20, func() { sgd.Step(t.lr) })
	allocs, bytes := allocProbe(50, func() {
		model.ComputeGradients(bx, labels)
		sgd.Step(t.lr)
	})
	res.emit("nn.step_allocs", allocs, 50)
	res.emit("nn.step_alloc_bytes", bytes, 50)
	tracker := gradstat.NewConfiguredTracker(t.trackerAlpha, 0, t.workers)
	ns("gradstat.observe_ns", 20, func() { tracker.ObserveParams(model.Params()) })

	// cluster: one synchronization round of each kind on shared memory.
	cfg := t.config(ds, 1)
	cl := cluster.New(cluster.Config{Workers: t.workers, Model: cfg.Model, Opt: cfg.Opt, Seed: seed, TrackerAlpha: t.trackerAlpha})
	defer cl.Close()
	flags := make([]bool, t.workers)
	ns("cluster.aggregate_grads_ns", 10, func() { cl.AggregateGrads(mean) })
	ns("cluster.aggregate_params_ns", 10, func() { cl.AggregateParams() })
	ns("cluster.exchange_flags_ns", 2000, func() { cl.ExchangeFlags(flags) })
	ns("cluster.each_ns", 500, func() { cl.Each(func(*cluster.Worker) {}) })
	allocs, _ = allocProbe(50, func() { cl.AggregateParams() })
	res.emit("cluster.sync_allocs", allocs, 50)

	probeJobLifecycle(res, cfg, min(5, probeSamples))

	// experiments: what the daemon pays to turn one admitted spec into a job.
	bg, _ := serveMixedWorkload.specs(seed, 1, 0)
	spec := experiments.RunSpec{
		Model: bg[0].Model, Method: bg[0].Method, Workers: bg[0].Workers,
		TrainN: bg[0].TrainN, TestN: bg[0].TestN, MaxSteps: bg[0].MaxSteps, Seed: bg[0].Seed,
		C: bg[0].C, E: bg[0].E,
	}
	samples := make([]float64, probeSamples)
	for i := range samples {
		t0 := time.Now()
		if _, _, err := experiments.JobFor(spec); err != nil {
			res.gate("probe job built", false, err.Error())
		}
		samples[i] = ms(time.Since(t0))
	}
	res.emit("experiments.job_for_ms", median(samples), probeSamples)
}

// probeJobLifecycle times what a job costs around its steps: building it,
// capturing a checkpoint, and restoring one.
func probeJobLifecycle(res *result, cfg train.Config, reps int) {
	policy := selsyncPolicy
	short := cfg
	short.MaxSteps = 20
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	build := make([]float64, reps)
	for i := range build {
		// Under a cancelled context Run builds the cluster and the engine
		// and returns at the first step boundary.
		t0 := time.Now()
		train.NewJob(cfg, policy()).Run(cancelled)
		build[i] = ms(time.Since(t0))
	}
	res.emit("train.job_build_ms", median(build), reps)

	capture, restore := make([]float64, reps), make([]float64, reps)
	var size int
	for i := 0; i < reps; i++ {
		ctx, stop := context.WithCancel(context.Background())
		job := train.NewJob(short, policy(), train.WithObserver(train.ObserverFunc(func(e train.Event) {
			if s, ok := e.(train.StepEvent); ok && s.Step == 9 {
				stop()
			}
		})))
		job.Run(ctx)
		stop()
		t0 := time.Now()
		ck, err := job.Checkpoint(context.Background())
		capture[i] = ms(time.Since(t0))
		if err != nil {
			res.gate("probe checkpoint captured", false, err.Error())
			return
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			res.gate("probe checkpoint encoded", false, err.Error())
			return
		}
		size = buf.Len()

		// Restore: Run under a resume checkpoint until the RecoveryEvent that
		// precedes the first restored step, less nothing: the build is part
		// of what a resumed segment pays.
		ctx, stop = context.WithCancel(context.Background())
		t0 = time.Now()
		resumed := train.NewJob(short, policy(), train.WithResume(ck), train.WithObserver(train.ObserverFunc(func(e train.Event) {
			if _, ok := e.(train.RecoveryEvent); ok {
				restore[i] = ms(time.Since(t0))
				stop()
			}
		})))
		resumed.Run(ctx)
		stop()
	}
	res.emit("train.checkpoint_capture_ms", median(capture), reps)
	res.emit("train.checkpoint_bytes", float64(size), 1)
	res.emit("train.resume_restore_ms", median(restore), reps)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
