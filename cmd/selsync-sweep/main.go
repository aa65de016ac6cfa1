// Command selsync-sweep sweeps the SelSync significance threshold δ for one
// run and reports how LSSR, the final metric and the simulated training
// time move — the paper's Fig. 6 intuition ("slide δ between 0 and M to
// adjust the degree of training between synchronous and local updates") as
// a table. It takes selsync-node's training flags, with -deltas in place
// of -delta:
//
//	selsync-sweep -model resnet -deltas 0,0.05,0.1,0.2,0.4 -steps 300
//
// Every selsync phase of -method runs at the row's δ, so a schedule shows
// how the threshold behaves downstream of a synchronous BSP warmup:
//
//	selsync-sweep -model resnet -deltas 0.05,0.1,0.2 -method bsp:100,selsync -steps 300
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"selsync/internal/experiments"
)

func main() {
	var spec experiments.RunSpec
	experiments.BindRunFlags(flag.CommandLine, &spec)
	deltasArg := flag.String("deltas", "0,0.02,0.05,0.1,0.2,1000", "comma-separated δ values (0 ≈ BSP, 1000 ≈ pure local SGD)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "delta" {
			fail("-delta is what the sweep varies: list the values in -deltas")
		}
	})

	var deltas []float64
	for _, part := range strings.Split(*deltasArg, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || d < 0 {
			fail("bad delta %q: want a number ≥ 0", part)
		}
		deltas = append(deltas, d)
	}

	// Each δ runs as a cancellable Job: Ctrl-C finishes none of the
	// remaining rows but reports the sweep gathered so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// Once cancellation is in flight, restore default SIGINT handling
		// so a second Ctrl-C force-kills immediately.
		<-ctx.Done()
		stop()
	}()
	baseline := -1.0
	for i, d := range deltas {
		row := spec
		row.Delta = d
		if d == 0 {
			// RunSpec reads δ 0 as "the workload's calibrated δ"; the sweep's
			// 0 is the threshold itself. SelSync votes to synchronize every
			// step at any δ ≤ 0, so a negative δ runs exactly δ = 0.
			row.Delta = -1
		}
		job, wl, err := experiments.JobFor(row)
		if err != nil {
			fail("%v", err)
		}
		if i == 0 {
			unit := "acc%"
			if wl.Factory.Spec.Perplexity {
				unit = "ppl"
			}
			fmt.Printf("δ sweep: %s, -method %s, %d workers, %d steps, %s aggregation\n",
				wl.Factory.Spec.Name, spec.Method, spec.Workers, spec.MaxSteps, flag.Lookup("agg").Value)
			fmt.Printf("%-10s %-8s %-10s %-10s %-12s %s\n", "delta", "LSSR", "sync", "local", "simtime(s)", unit)
		}
		res, err := job.Run(ctx)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Println("sweep interrupted; rows above are complete runs")
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if baseline < 0 {
			baseline = res.SimTime
		}
		fmt.Printf("%-10.3g %-8.3f %-10d %-10d %-12.1f %.2f   (%.2fx vs δ=%.3g)\n",
			d, res.LSSR, res.SyncSteps, res.LocalSteps, res.SimTime,
			res.BestMetric, baseline/res.SimTime, deltas[0])
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
