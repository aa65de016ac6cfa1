// Gradient vs parameter aggregation: the paper's §III-C ablation. Under
// semi-synchronous training, averaging gradients leaves diverged replicas
// diverged, while averaging parameters restores one consistent global
// state at every synchronization — and generalizes better once the
// learning-rate schedule decays.
//
//	go run ./examples/gavspa
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"selsync"
)

func main() {
	wload := selsync.WorkloadForModel("resnet", 4096, 1024, 9)
	cfg := selsync.Config{
		Model:     selsync.ResNetLite(10, 4),
		Workers:   8,
		Batch:     16,
		Seed:      9,
		Train:     wload.Train,
		Test:      wload.Test,
		Scheme:    selsync.SelDP,
		MaxSteps:  240,
		EvalEvery: 40,
	}
	const delta = 0.18

	run := func(mode selsync.AggMode) *selsync.Result {
		res, err := selsync.NewJob(cfg, selsync.SelSyncPolicy{Delta: delta, Mode: mode}).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	pa, ga := run(selsync.ParamAgg), run(selsync.GradAgg)

	fmt.Printf("SelSync δ=%.2f on %s, 8 workers\n\n", delta, pa.Model)
	fmt.Println("mode       LSSR    best acc%  history (step → acc%)")
	for _, res := range []*selsync.Result{pa, ga} {
		fmt.Printf("%-10s %.3f  %-9.2f ", modeName(res), res.LSSR, res.BestMetric)
		for _, pt := range res.History {
			fmt.Printf(" %d→%.1f", pt.Step, pt.Metric)
		}
		fmt.Println()
	}
	fmt.Println("\nParameter aggregation bounds replica divergence at every sync;")
	fmt.Println("gradient aggregation applies a shared update to already-diverged replicas.")
}

// modeName shortens "SelSync(δ=0.18,ParamAgg)"-style method strings.
func modeName(r *selsync.Result) string {
	if strings.Contains(r.Method, "ParamAgg") {
		return "PA"
	}
	return "GA"
}
