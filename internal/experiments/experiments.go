package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Runner executes one experiment at a scale, writing its report.
type Runner func(scale Scale, w io.Writer) error

// Registry maps experiment ids (the table/figure numbers of the paper) to
// their runners. cmd/selsync-bench and the benchmark harness both dispatch
// through this map.
func Registry() map[string]Runner {
	wrapF := func(f func(Scale, io.Writer) *Figure) Runner {
		return func(s Scale, w io.Writer) error { f(s, w); return nil }
	}
	wrapT := func(f func(Scale, io.Writer) *Table) Runner {
		return func(s Scale, w io.Writer) error { f(s, w); return nil }
	}
	wrapFT := func(f func(Scale, io.Writer) (*Figure, *Table)) Runner {
		return func(s Scale, w io.Writer) error { f(s, w); return nil }
	}
	return map[string]Runner{
		"fig1a":  wrapF(Fig1a),
		"fig1b":  wrapF(Fig1b),
		"fig2a":  wrapF(Fig2a),
		"fig2b":  wrapT(Fig2b),
		"fig3":   wrapF(Fig3),
		"fig4":   wrapF(Fig4),
		"fig5":   wrapF(Fig5),
		"fig8a":  wrapT(Fig8a),
		"fig8b":  wrapT(Fig8b),
		"fig9":   wrapFT(Fig9),
		"fig10":  wrapFT(Fig10),
		"fig11":  wrapFT(Fig11),
		"fig12":  wrapFT(Fig12),
		"table1": wrapT(Table1),
		// Ablations for the design choices DESIGN.md calls out.
		"ablation-topology":  wrapT(AblationTopology),
		"ablation-straggler": wrapT(AblationStraggler),
		// Beyond the paper: the Sync-Switch-style hybrid the policy engine
		// enables (BSP warmup → SelSync steady-state vs the pure policies).
		"switch": wrapFT(SwitchCompare),
		// Wire efficiency: payload codecs (top-k, quantization, partial
		// sharing) vs dense BSP.
		"compression": wrapT(Compression),
		// Multi-tenant serving: the serve daemon under a seeded job flood
		// (fair-share, preemption and zero-loss acceptance assertions).
		"serve-load": wrapT(ServeLoad),
		// Failure/straggler scenario suite (scenarios.go): pass/fail
		// assertions over the fault-tolerant fabric's guarantees.
		"scenario-crash":     ScenarioCrash,
		"scenario-partition": ScenarioPartition,
		"scenario-flaky":     ScenarioFlaky,
		"scenario-straggler": ScenarioStraggler,
		"scenario-churn":     ScenarioChurn,
	}
}

// IDs returns the registry keys sorted.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run dispatches one experiment by id. A failed training run inside the
// experiment (a panic from the run fan-out — parallelDo cancels the
// sibling runs and re-raises the first failure) surfaces as an error, not
// a crash.
func Run(id string, scale Scale, w io.Writer) (err error) {
	r, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s failed: %v", id, p)
		}
	}()
	return r(scale, w)
}

// RunAll executes every experiment. With a serial budget (the default) it
// runs them one after another in id order. With SetParallelism(n>1) every
// experiment renders into its own buffer concurrently — their training
// runs all drawing from the same n-slot budget — and the buffers are
// flushed in id order, so the report bytes match the serial run for every
// deterministic experiment (the wall-clock-measuring figures 8a/8b report
// machine timings and are never byte-stable, serial or not).
func RunAll(scale Scale, w io.Writer) error {
	ids := IDs()
	if Parallelism() <= 1 {
		for _, id := range ids {
			fmt.Fprintf(w, "\n### %s (%s scale)\n", id, scale)
			if err := Run(id, scale, w); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}

	bufs := make([]bytes.Buffer, len(ids))
	errs := make([]error, len(ids))
	// Experiment-level concurrency gets its own cap (same width as the
	// run budget) so at most that many experiments hold datasets and
	// report buffers at once. It is a separate semaphore from the leaf
	// budget: experiment goroutines never hold a leaf slot (sched.go
	// invariant 1), and leaf jobs never touch this one, so there is no
	// circular wait.
	expSem := make(chan struct{}, Parallelism())
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			expSem <- struct{}{}
			defer func() { <-expSem }()
			errs[i] = Run(id, scale, &bufs[i])
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		fmt.Fprintf(w, "\n### %s (%s scale)\n", id, scale)
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", id, errs[i])
		}
	}
	return nil
}
