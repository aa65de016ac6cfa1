// Command selsync-train runs one distributed-training configuration and
// prints the metric history and summary.
//
// Single process (loopback transport, the default):
//
//	selsync-train -model resnet -method selsync -delta 0.18 -workers 8 -steps 400
//	selsync-train -model vgg -method fedavg -c 0.5 -e 0.125
//	selsync-train -model alexnet -method ssp -staleness 100
//	selsync-train -model transformer -method bsp
//
// -method also accepts a hybrid phase schedule — Sync-Switch-style BSP
// warmup flowing into SelSync steady-state, for example:
//
//	selsync-train -model resnet -method bsp:200,selsync -steps 400
//
// The run is a cancellable Job: -progress streams live evaluations to
// stderr, -events writes the full typed event stream as JSONL, and SIGINT
// (Ctrl-C) stops gracefully at the next step boundary, printing the
// partial result. With -checkpoint the final state — interrupted or not —
// is saved, and -resume continues a saved run bit-identically:
//
//	selsync-train -model resnet -steps 400 -checkpoint run.ckpt   # Ctrl-C midway
//	selsync-train -model resnet -steps 400 -resume run.ckpt       # same flags!
//
// -digest prints a SHA-256 digest over every Result field (exact float
// bits); an interrupted-and-resumed run digests identically to an
// uninterrupted one.
//
// Across OS processes (TCP transport; start one process per rank, or use
// cmd/selsync-node's -launch to spawn them all):
//
//	selsync-train -transport tcp -rank 0 -peers 127.0.0.1:7701,127.0.0.1:7702 -workers 2 -model resnet &
//	selsync-train -transport tcp -rank 1 -peers 127.0.0.1:7701,127.0.0.1:7702 -workers 2 -model resnet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"selsync/internal/experiments"
	"selsync/internal/train"
)

func main() {
	model := flag.String("model", "resnet", "workload: resnet | vgg | alexnet | transformer")
	method := flag.String("method", "selsync", "policy: bsp | selsync | fedavg | ssp | local, or a schedule like bsp:200,selsync")
	workers := flag.Int("workers", 8, "number of workers")
	steps := flag.Int("steps", 300, "training steps per worker")
	trainN := flag.Int("train", 6144, "training-set size")
	testN := flag.Int("test", 1024, "test-set size")
	seed := flag.Uint64("seed", 1, "run seed")
	scheme := flag.String("scheme", "seldp", "IID partitioning: seldp | defdp")
	delta := flag.Float64("delta", 0, "SelSync δ (0 = the workload's calibrated low threshold)")
	mode := flag.String("agg", "param", "SelSync aggregation: param | grad")
	c := flag.Float64("c", 1, "FedAvg participation fraction C")
	e := flag.Float64("e", 0.25, "FedAvg sync factor E")
	staleness := flag.Int("staleness", 100, "SSP staleness bound")
	labelsPerWorker := flag.Int("noniid", 0, "labels per worker (0 = IID)")
	alpha := flag.Float64("alpha", 0, "data-injection α (0 = off)")
	beta := flag.Float64("beta", 0, "data-injection β")
	codec := flag.String("codec", "", "wire payload codec: none | topk:F | q8 | q16 | partial:U[,D] (default none)")
	transport := flag.String("transport", "loopback", "communication backend: loopback | tcp")
	rank := flag.Int("rank", -1, "this process's rank (tcp transport only)")
	peers := flag.String("peers", "", "comma-separated host:port per rank (tcp transport only)")
	progress := flag.Bool("progress", false, "stream live evaluation progress to stderr")
	eventsPath := flag.String("events", "", "write the typed event stream as JSONL to this file")
	ckptPath := flag.String("checkpoint", "", "save the run's final (or interrupted) state to this file")
	resumePath := flag.String("resume", "", "resume from a checkpoint file (same flags as the producing run)")
	digest := flag.Bool("digest", false, "print the Result's SHA-256 digest (bit-exact run fingerprint)")
	flag.Parse()

	switch *mode {
	case "param", "grad":
	default:
		fail("unknown -agg %q (want param or grad)", *mode)
	}

	spec := experiments.RunSpec{
		Model: *model, Method: *method, Scheme: *scheme,
		Workers: *workers, TrainN: *trainN, TestN: *testN,
		MaxSteps: *steps, Seed: *seed,
		Delta: *delta, GradAgg: *mode == "grad",
		C: *c, E: *e, Staleness: *staleness,
		LabelsPerWorker: *labelsPerWorker, Alpha: *alpha, Beta: *beta,
		Codec: *codec,
	}

	// First SIGINT cancels the run at the next step boundary (the partial
	// result is printed and, with -checkpoint, saved); a second SIGINT
	// kills the process the usual way. Installed before workload setup so
	// an early Ctrl-C is graceful too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// Once cancellation is in flight, restore default SIGINT handling
		// so a second Ctrl-C force-kills (e.g. a mesh rank stuck in a
		// collective that never reaches a step boundary).
		<-ctx.Done()
		stop()
	}()

	fabric, report, err := experiments.ParseTransport(*transport, *rank, *peers, *workers)
	if err != nil {
		fail("%v", err)
	}
	if fabric != nil {
		defer fabric.Close()
		spec.Fabric = fabric
	}

	var opts []train.Option
	var prog *train.ProgressObserver
	if *progress {
		prog = train.NewProgressObserver(os.Stderr)
		opts = append(opts, train.WithObserver(prog))
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fail("creating -events file: %v", err)
		}
		defer f.Close()
		sink := train.NewJSONLObserver(f)
		defer func() {
			if sink.Err() != nil {
				fmt.Fprintf(os.Stderr, "event stream truncated: %v\n", sink.Err())
			}
		}()
		opts = append(opts, train.WithObserver(sink))
	}
	if *resumePath != "" {
		ck, err := train.LoadCheckpoint(*resumePath)
		if err != nil {
			fail("loading -resume checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "resuming from %s (step %d)\n", *resumePath, ck.Step)
		opts = append(opts, train.WithResume(ck))
	}

	job, wl, err := experiments.JobFor(spec, opts...)
	if err != nil {
		fail("%v", err)
	}
	if prog != nil {
		prog.SetPerplexity(wl.Factory.Spec.Perplexity)
	}

	res, err := job.Run(ctx)
	// A deadline behaves like Ctrl-C: Run still hands back a valid
	// partial Result worth printing and checkpointing.
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		fail("%v", err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "\ninterrupted at step %d; result below is the partial run\n", res.Steps)
	}
	if *ckptPath != "" {
		ck, err := job.Checkpoint(context.Background())
		if err != nil {
			fail("checkpointing: %v", err)
		}
		if err := train.SaveCheckpoint(*ckptPath, ck); err != nil {
			fail("saving checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint saved to %s (resume with -resume %s)\n", *ckptPath, *ckptPath)
	}
	if !report {
		fmt.Printf("rank %d done (rank 0 holds the report)\n", *rank)
		return
	}

	unit := "acc%"
	if res.Perplexity {
		unit = "ppl"
	}
	fmt.Printf("step      epoch    simtime(s)  loss      %s\n", unit)
	for _, pt := range res.History {
		fmt.Printf("%-9d %-8.2f %-11.1f %-9.4f %.2f\n", pt.Step, pt.Epoch, pt.SimTime, pt.Loss, pt.Metric)
	}
	fmt.Println()
	fmt.Println(res)
	fmt.Printf("sync steps: %d, local steps: %d, comm reduction vs BSP: %.1fx\n",
		res.SyncSteps, res.LocalSteps, res.CommReduction())
	if *digest {
		fmt.Printf("result digest: %s\n", res.Digest())
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
