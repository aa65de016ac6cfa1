// Non-IID training with randomized data-injection: each of 10 workers
// holds a single class label (the paper's hardest skew). Plain FedAvg
// oscillates; SelSync with data-injection (α, β) shares a few samples per
// step and recovers most of the lost accuracy (paper §III-E and Fig. 12).
//
//	go run ./examples/noniid
package main

import (
	"context"
	"fmt"
	"log"

	"selsync"
)

func main() {
	const workers = 10
	wload := selsync.WorkloadForModel("resnet", 4096, 1024, 5)
	base := selsync.Config{
		Model:     selsync.ResNetLite(10, 4),
		Workers:   workers,
		Batch:     32,
		Seed:      5,
		Train:     wload.Train,
		Test:      wload.Test,
		MaxSteps:  200,
		EvalEvery: 40,
	}

	// FedAvg on 1-label-per-worker data, no injection. E=0.5 gives ≈6
	// local steps between rounds at this dataset size — the same local
	// phase length the paper's E=0.1 implies at its 150-step epochs.
	train := func(cfg selsync.Config, policy selsync.SyncPolicy) *selsync.Result {
		res, err := selsync.NewJob(cfg, policy).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fedCfg := base
	fedCfg.NonIID = &selsync.NonIID{LabelsPerWorker: 1}
	fed := train(fedCfg, &selsync.FedAvgPolicy{C: 1, E: 0.5})

	// SelSync with two data-injection configurations. Worker batches
	// shrink to b′ = b/(1+αβN) so the pooled batch stays at b (Eqn. 3).
	run := func(alpha, beta, delta float64) *selsync.Result {
		cfg := base
		cfg.NonIID = &selsync.NonIID{
			LabelsPerWorker: 1,
			Injection:       &selsync.Injection{Alpha: alpha, Beta: beta},
		}
		return train(cfg, selsync.SelSyncPolicy{Delta: delta, Mode: selsync.ParamAgg})
	}
	mild := run(0.5, 0.5, 0.18)
	rich := run(0.75, 0.75, 0.18)

	fmt.Println("non-IID CIFAR-10-like, 1 label per worker, 10 workers:")
	fmt.Printf("  FedAvg (no injection):        best acc %.2f%%\n", fed.BestMetric)
	fmt.Printf("  SelSync + injection (.5,.5):  best acc %.2f%%\n", mild.BestMetric)
	fmt.Printf("  SelSync + injection (.75,.75): best acc %.2f%%\n", rich.BestMetric)
	inj := selsync.Injection{Alpha: 0.5, Beta: 0.5}
	fmt.Printf("\nEqn. 3: with b=32, N=%d, (α,β)=(0.5,0.5) the local batch shrinks to b′=%d\n",
		workers, inj.AdjustedBatch(32, workers))
}
