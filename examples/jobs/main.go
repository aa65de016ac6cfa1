// Jobs: the cancellable, observable, resumable run API. This example
// trains SelSync as a Job three ways over the same configuration:
//
//  1. watched — a progress observer streams evaluations and phase
//     switches while a JSONL sink records the full typed event stream;
//
//  2. interrupted — an observer cancels the context at step 100 (the
//     deterministic stand-in for Ctrl-C), yielding a partial Result, and
//     the job is checkpointed;
//
//  3. resumed — a new job continues from the checkpoint and finishes with
//     a Result bit-identical to an uninterrupted run (verified here by
//     digest).
//
//     go run ./examples/jobs
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"selsync"
)

func main() {
	wload := selsync.WorkloadForModel("resnet", 4096, 1024, 1)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 4), Workers: 8, Batch: 16, Seed: 1,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 200, EvalEvery: 40,
	}
	policy := func() selsync.SyncPolicy {
		// Fresh per job: policies carry per-run state.
		return &selsync.SwitchPolicy{
			From:   selsync.BSPPolicy{}, // synchronous warmup...
			To:     selsync.SelSyncPolicy{Delta: 0.18, Mode: selsync.ParamAgg},
			AtStep: 60, // ...then selective synchronization
		}
	}

	// 1. A watched run: live progress on stderr, full event log on disk.
	events, err := os.Create("events.jsonl")
	if err != nil {
		panic(err)
	}
	defer events.Close()
	fmt.Println("=== watched run (progress + events.jsonl) ===")
	watched, err := selsync.NewJob(cfg, policy(),
		selsync.WithObserver(selsync.NewProgressObserver(os.Stderr)),
		selsync.WithObserver(selsync.NewJSONLObserver(events)),
	).Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println(watched)

	// 2. An interrupted run: cancel deterministically after step 100.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := selsync.NewJob(cfg, policy(),
		selsync.WithObserver(selsync.ObserverFunc(func(e selsync.Event) {
			if se, ok := e.(selsync.StepEvent); ok && se.Step == 100 {
				cancel()
			}
		})))
	partial, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		panic(fmt.Sprintf("expected cancellation, got %v", err))
	}
	fmt.Printf("\n=== interrupted at step %d (partial, %d evals so far) ===\n",
		partial.Steps, len(partial.History))
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		panic(err)
	}
	if err := selsync.SaveCheckpoint("run.ckpt", ck); err != nil {
		panic(err)
	}

	// 3. Resume from the file and finish. Same Config, fresh policy.
	loaded, err := selsync.LoadCheckpoint("run.ckpt")
	if err != nil {
		panic(err)
	}
	resumed, err := selsync.NewJob(cfg, policy(), selsync.WithResume(loaded)).Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n=== resumed from step %d to completion ===\n", loaded.Step)
	fmt.Println(resumed)

	if resumed.Digest() == watched.Digest() {
		fmt.Println("\ninterrupt → checkpoint → resume reproduced the uninterrupted run bit for bit ✓")
	} else {
		fmt.Println("\nDIGEST MISMATCH — resume is not bit-identical (this is a bug)")
		os.Exit(1)
	}
}
