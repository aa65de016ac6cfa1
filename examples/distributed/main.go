// Example distributed: a 4-worker SelSync(δ) job over the TCP transport,
// with the four ranks running here as goroutines for a self-contained
// program — each builds its own datasets, its own model replica and its
// own TCP mesh endpoint, exactly what four OS processes would do (use
// cmd/selsync-node -launch 4 for the real multi-process form).
//
// The punchline: every rank's Result — and the single-process loopback
// run of the same seed — agree bit for bit, because the mesh reduces in
// worker-id order with the same deterministic kernels the loopback fabric
// uses. Selective synchronization survives the move onto real sockets
// unchanged.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"reflect"
	"sync"

	"selsync"
)

const (
	workers = 4
	ranks   = 4
	seed    = 7
)

func runOne(fabric selsync.Fabric) (*selsync.Result, error) {
	wload := selsync.WorkloadForModel("resnet", 2048, 512, seed)
	cfg := selsync.Config{
		Model: selsync.ResNetLite(10, 6), Workers: workers, Batch: 16, Seed: seed,
		Train: wload.Train, Test: wload.Test, Scheme: selsync.SelDP,
		MaxSteps: 40, EvalEvery: 10,
		Fabric: fabric,
	}
	policy := selsync.SelSyncPolicy{Delta: 0.04, Mode: selsync.ParamAgg}
	return selsync.NewJob(cfg, policy).Run(context.Background())
}

func main() {
	// Reserve one localhost port per rank by binding and releasing it,
	// the same dance selsync-node -launch does for real processes. The
	// ranks re-bind moments later (DialTCPFabric retries briefly); on a
	// quiet machine the addresses stay free for that window.
	peers := make([]string, ranks)
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		peers[r] = ln.Addr().String()
		ln.Close()
	}

	results := make([]*selsync.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fabric, err := selsync.DialTCPFabric(r, peers, workers)
			if err != nil {
				errs[r] = err
				return
			}
			defer fabric.Close()
			results[r], errs[r] = runOne(fabric)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}

	fmt.Println("TCP rank 0:", results[0])
	loopback, err := runOne(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loopback:  ", loopback)

	agree := true
	for _, res := range results[1:] {
		agree = agree && reflect.DeepEqual(res, results[0])
	}
	same := reflect.DeepEqual(results[0], loopback)
	fmt.Printf("all TCP ranks bit-identical:      %v\n", agree)
	fmt.Printf("TCP bit-identical to loopback:    %v\n", same)
	fmt.Printf("comm reduction vs BSP:            %.1fx (LSSR %.3f)\n",
		results[0].CommReduction(), results[0].LSSR)
	if !agree || !same {
		log.Fatal("the TCP run is not bit-identical to loopback (this is a bug)")
	}
}
