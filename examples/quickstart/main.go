// Quickstart: train the residual classifier with SelSync on a simulated
// 8-worker cluster and compare against the BSP baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"selsync"
)

func main() {
	// A CIFAR-10-like synthetic workload: 10-class Gaussian images with a
	// real train/test generalization gap.
	wload := selsync.WorkloadForModel("resnet", 4096, 1024, 1)

	cfg := selsync.Config{
		Model:   selsync.ResNetLite(10, 4),
		Workers: 8,
		Batch:   16,
		Seed:    1,
		Train:   wload.Train,
		Test:    wload.Test,
		// SelDP: every worker sees the whole dataset in a rotated order,
		// the partitioning SelSync introduces for semi-synchronous runs.
		Scheme:    selsync.SelDP,
		MaxSteps:  200,
		EvalEvery: 40,
	}

	ctx := context.Background()
	fmt.Println("training with BSP (synchronize every step)...")
	bsp, err := selsync.NewJob(cfg, selsync.BSPPolicy{}).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training with SelSync (synchronize only significant updates)...")
	sel, err := selsync.NewJob(cfg, selsync.SelSyncPolicy{
		Delta: 0.18,             // significance threshold on Δ(g_i)
		Mode:  selsync.ParamAgg, // average parameters during sync phases
	}).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println(bsp)
	fmt.Println(sel)
	fmt.Printf("\nSelSync skipped %.0f%% of synchronizations (LSSR=%.2f, %.1fx less communication)\n",
		sel.LSSR*100, sel.LSSR, sel.CommReduction())
	fmt.Printf("simulated training time: BSP %.0fs vs SelSync %.0fs (%.2fx faster)\n",
		bsp.SimTime, sel.SimTime, bsp.SimTime/sel.SimTime)
	fmt.Printf("final accuracy: BSP %.2f%% vs SelSync %.2f%%\n", bsp.BestMetric, sel.BestMetric)
}
