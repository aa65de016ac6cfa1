// Delta sweep: slide the SelSync significance threshold δ from 0 (pure
// BSP) to far beyond the largest observed Δ(g_i) (pure local SGD) and
// watch the trade-off between communication and accuracy — the paper's
// Fig. 6 intuition, measured.
//
//	go run ./examples/deltasweep
package main

import (
	"context"
	"fmt"
	"log"

	"selsync"
)

func main() {
	wload := selsync.WorkloadForModel("vgg", 4096, 1024, 7)
	cfg := selsync.Config{
		Model:     selsync.VGGLite(100),
		Workers:   8,
		Batch:     16,
		Seed:      7,
		Train:     wload.Train,
		Test:      wload.Test,
		Scheme:    selsync.SelDP,
		MaxSteps:  240,
		EvalEvery: 40,
	}

	fmt.Println("δ        LSSR    sync  local  simtime(s)  best acc%")
	for _, delta := range []float64{0, 0.02, 0.055, 0.075, 0.15, 1e9} {
		res, err := selsync.NewJob(cfg, selsync.SelSyncPolicy{
			Delta: delta,
			Mode:  selsync.ParamAgg,
		}).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%.3g", delta)
		if delta == 0 {
			label = "0 (=BSP)"
		} else if delta >= 1e9 {
			label = "∞ (=local)"
		}
		fmt.Printf("%-8s %.3f  %-5d %-6d %-11.1f %.2f\n",
			label, res.LSSR, res.SyncSteps, res.LocalSteps, res.SimTime, res.BestMetric)
	}
	fmt.Println("\nδ=0 buys maximum statistical efficiency at maximum cost;")
	fmt.Println("very large δ is cheap but lets replicas drift; the sweet spot sits between.")
}
