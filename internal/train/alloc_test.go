//go:build !race

package train

import (
	"context"
	"runtime"
	"testing"

	"selsync/internal/cluster"
)

// evalEvery5 turns a benchEngine's evaluation cadence on, so that the steps
// an allocation pin measures cross evaluation boundaries: the warm-up then
// covers two evaluations (replicas built, batch buffers grown) and the
// measured steps several more. History gets its capacity up front — appending
// an EvalPoint is the one thing an evaluation is meant to keep.
func evalEvery5(r *runner) {
	r.cfg.EvalEvery = 5
	r.res.History = make([]EvalPoint, 0, 1024)
}

// TestEngineStepDoesNotAllocate pins the BenchmarkEngineStep property as a
// hard test: after warmup, a steady-state engine step — every fifth one with
// a test-set evaluation behind it — performs zero heap allocations for the
// always-sync, vote-and-sync and never-sync policies. Skipped under the race
// detector, which instruments allocations.
func TestEngineStepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
	}{
		{"bsp", BSPPolicy{}},
		{"selsync", SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg}},
		{"local", LocalSGDPolicy{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, e := benchEngine(tc.policy)
			defer r.cl.Close()
			evalEvery5(r)
			step := 0
			for ; step < 10; step++ { // warm buffers and tracker windows
				e.step(step)
			}
			allocs := testing.AllocsPerRun(100, func() {
				e.step(step)
				step++
			})
			if allocs > 0 {
				t.Fatalf("engine step allocated %.1f times per op, want 0", allocs)
			}
		})
	}
}

// TestEngineStepDoesNotAllocateMultiCore is the same pin on the path that
// runs on a multi-core machine. testing.AllocsPerRun forces GOMAXPROCS to 1,
// under which no tensor kernel ever fans out, so this test raises GOMAXPROCS
// and counts mallocs itself (process-wide, so helper goroutines count too).
// c100 is the benchmark's task shape, whose step stays inline whatever
// GOMAXPROCS is; wide has GEMMs and a parameter vector large enough for
// MatMul*, Average and CopyAll to fan out. At GOMAXPROCS 4 an evaluation runs
// on as many replicas as the run hosts workers, each on a pool goroutine.
func TestEngineStepDoesNotAllocateMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, shape := range []struct {
		name string
		cfg  func(seed uint64) Config
	}{
		{"c100", c100Config},
		{"wide", wideConfig},
	} {
		for _, tc := range []struct {
			name   string
			policy SyncPolicy
		}{
			{"bsp", BSPPolicy{}},
			{"selsync", SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg}},
			{"local", LocalSGDPolicy{}},
		} {
			t.Run(shape.name+"/"+tc.name, func(t *testing.T) {
				r, e := benchEngineFor(shape.cfg(1), tc.policy)
				defer r.cl.Close()
				evalEvery5(r)
				step := 0
				for ; step < 10; step++ { // warm buffers, tracker windows, kernel helpers
					e.step(step)
				}
				const steps = 40
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for end := step + steps; step < end; step++ {
					e.step(step)
				}
				runtime.ReadMemStats(&after)
				if allocs := (after.Mallocs - before.Mallocs) / steps; allocs > 0 {
					t.Fatalf("engine step allocated %d times per op at GOMAXPROCS=4, want 0", allocs)
				}
			})
		}
	}
}

// TestJobLoopDoesNotAllocateWithoutObserver pins the Job-era guarantee:
// with no observer attached, the full per-step loop — checkpoint-request
// poll, cancellation poll, and the engine step with its behind-a-nil-check
// event construction, an evaluation every fifth step — performs zero heap
// allocations, even under a cancellable context. Events exist only when
// someone is listening.
func TestJobLoopDoesNotAllocateWithoutObserver(t *testing.T) {
	r, e := benchEngine(SelSyncPolicy{Delta: 0.05, Mode: cluster.ParamAgg})
	defer r.cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := NewJob(Config{}, e.policy) // plumbing only; the engine is driven directly
	j.r = r
	r.done = ctx.Done()
	evalEvery5(r)

	step := 0
	for ; step < 10; step++ { // warm buffers and tracker windows
		j.serviceCheckpoint(step)
		e.step(step)
	}
	allocs := testing.AllocsPerRun(100, func() {
		j.serviceCheckpoint(step)
		if r.cancelled() {
			t.Fatal("context unexpectedly done")
		}
		e.step(step)
		step++
	})
	if allocs > 0 {
		t.Fatalf("job step loop allocated %.1f times per op, want 0", allocs)
	}
}
