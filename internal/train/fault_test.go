package train

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
)

// faultCfg is the shared workload for the fault suite: long enough for
// auto-checkpoints and a mid-flight crash, short enough for a unit test.
func faultCfg(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.MaxSteps = 40
	cfg.EvalEvery = 8
	return cfg
}

func faultPolicy() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg} }

// fastTCP returns transport options tuned so dead links fail in
// milliseconds instead of the production-grade seconds.
func fastTCP() *comm.TCPOptions {
	opts := comm.DefaultTCPOptions()
	opts.RedialAttempts = 1
	opts.RedialBackoff = 10 * time.Millisecond
	opts.RedialBackoffMax = 50 * time.Millisecond
	opts.ReconnectWait = 100 * time.Millisecond
	return &opts
}

// TestDelayOnlyChaosBitIdentical is the drop-free half of the chaos
// contract: a delay-only fault plan perturbs timing, never the delivered
// byte stream, so the run's Result must stay bit-identical to the clean
// run — on loopback endpoints and on real TCP.
func TestDelayOnlyChaosBitIdentical(t *testing.T) {
	mkCfg := func() Config {
		cfg := faultCfg(121)
		cfg.MaxSteps = 16
		return cfg
	}
	want, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	plan := comm.FaultPlan{
		Seed: 11,
		Links: []comm.LinkFault{{
			From: -1, To: -1,
			Delay: comm.DelayDist{Min: time.Microsecond, Max: 50 * time.Microsecond},
		}},
	}
	for _, transport := range []struct {
		name     string
		loopback bool
	}{{"loopback", true}, {"tcp", false}} {
		t.Run(transport.name, func(t *testing.T) {
			faulted := make([]*comm.FaultyEndpoint, 2)
			results, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{
				Loopback: transport.loopback,
				Wrap: func(rank int, ep comm.Endpoint) comm.Endpoint {
					fe := comm.WithFaults(ep, plan)
					faulted[rank] = fe
					return fe
				},
			}, func(rank int, fabric comm.Fabric) *Result {
				cfg := mkCfg()
				cfg.Fabric = fabric
				res, err := NewJob(cfg, faultPolicy()).Run(context.Background())
				if err != nil {
					panic(err)
				}
				return res
			})
			for rank, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d Result diverged under delay-only chaos:\n chaos: %+v\n clean: %+v", rank, got, want)
				}
				if got.Digest() != want.Digest() {
					t.Fatalf("rank %d digest diverged under delay-only chaos", rank)
				}
			}
			delays := 0
			for _, fe := range faulted {
				delays += fe.FaultStats().Delays
			}
			if delays == 0 {
				t.Fatal("the plan injected no delays — the run was not actually under chaos")
			}
		})
	}
}

// faultRun is one rank's outcome under an injected failure.
type faultRun struct {
	res    *Result
	err    error
	emerg  *Checkpoint
	faults []FaultEvent
	steps  int
}

// TestRankCrashSurfacesTypedErrorsAndPartialResults: a whole-rank crash
// mid-run must surface on every rank as a typed comm error with a
// partial-but-valid Result and a Dirty emergency checkpoint — never a
// panic — and restore must refuse the dirty checkpoint.
func TestRankCrashSurfacesTypedErrorsAndPartialResults(t *testing.T) {
	const crashRank = 1
	results, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{
		Loopback:  true,
		OpTimeout: 10 * time.Second,
		Wrap: func(rank int, ep comm.Endpoint) comm.Endpoint {
			if rank != crashRank {
				return ep
			}
			return comm.WithFaults(ep, comm.FaultPlan{CrashAtFrame: 60})
		},
	}, func(rank int, fabric comm.Fabric) faultRun {
		cfg := faultCfg(122)
		cfg.Fabric = fabric
		var out faultRun
		job := NewJob(cfg, faultPolicy(), WithObserver(ObserverFunc(func(e Event) {
			switch ev := e.(type) {
			case FaultEvent:
				out.faults = append(out.faults, ev)
			case StepEvent:
				out.steps++
			}
		})))
		out.res, out.err = job.Run(context.Background())
		out.emerg = job.EmergencyCheckpoint()
		return out
	})

	for rank, got := range results {
		if got.err == nil {
			t.Fatalf("rank %d completed despite the injected crash", rank)
		}
		var pe *comm.PeerError
		if !errors.As(got.err, &pe) {
			t.Fatalf("rank %d error is not a *comm.PeerError: %v", rank, got.err)
		}
		if rank == crashRank {
			if !errors.Is(got.err, comm.ErrCrashed) {
				t.Fatalf("crashed rank error should wrap ErrCrashed: %v", got.err)
			}
		} else if !errors.Is(got.err, comm.ErrPeerDown) && !errors.Is(got.err, comm.ErrTimeout) {
			t.Fatalf("survivor rank %d error should wrap ErrPeerDown or ErrTimeout: %v", rank, got.err)
		}
		if got.res == nil {
			t.Fatalf("rank %d returned no partial Result", rank)
		}
		if got.steps == 0 {
			t.Fatalf("rank %d made no progress before the crash", rank)
		}
		if len(got.faults) != 1 {
			t.Fatalf("rank %d observed %d FaultEvents, want exactly 1", rank, len(got.faults))
		}
		if !errors.Is(got.faults[0].Err, comm.ErrPeerDown) &&
			!errors.Is(got.faults[0].Err, comm.ErrTimeout) &&
			!errors.Is(got.faults[0].Err, comm.ErrCrashed) {
			t.Fatalf("rank %d FaultEvent carries an untyped error: %v", rank, got.faults[0].Err)
		}
		if got.emerg == nil {
			t.Fatalf("rank %d captured no emergency checkpoint", rank)
		}
		if !got.emerg.Dirty {
			t.Fatalf("rank %d emergency checkpoint is not marked Dirty", rank)
		}
	}

	// A dirty emergency checkpoint records salvaged state — it must not be
	// resumable.
	cfg := faultCfg(122)
	if _, err := NewJob(cfg, faultPolicy(), WithResume(results[0].emerg)).Run(context.Background()); err == nil {
		t.Fatal("resuming a Dirty emergency checkpoint must be refused")
	}
}

// TestCrashRecoveryDigestEquality is the recovery acceptance bar: a 4-rank
// TCP SelSync run that loses a rank mid-flight — and gang-restarts every
// rank from the latest auto-checkpoint step all ranks persisted — must
// reproduce the uninterrupted run's Result.Digest() exactly.
func TestCrashRecoveryDigestEquality(t *testing.T) {
	const (
		procs     = 4
		crashRank = 2
		autoEvery = 4
	)
	mkCfg := func() Config { return faultCfg(123) }

	want, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Probe: SelSync is lock-step, so the frames a rank has sent by a given
	// step are deterministic. Measure 20 steps' worth on the to-be-crashed
	// rank and schedule the crash halfway — mid-run, past at least one
	// auto-checkpoint cadence, without hand-deriving frames-per-step.
	probed, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{}, func(rank int, fabric comm.Fabric) int64 {
		cfg := mkCfg()
		cfg.MaxSteps = 20
		cfg.Fabric = fabric
		if _, err := NewJob(cfg, faultPolicy()).Run(context.Background()); err != nil {
			panic(err)
		}
		return fabric.(*comm.Mesh).Endpoint().NetStats().FramesSent
	})
	crashFrame := int(probed[crashRank] / 2)
	if crashFrame < 1 {
		t.Fatalf("implausible probe: rank %d sent %d frames over 20 steps", crashRank, probed[crashRank])
	}

	// Phase 1: the faulted run. Every rank auto-checkpoints every 4 steps
	// into its own sink; rank 2 crashes at the scheduled frame count.
	sinks := make([]map[int]*Checkpoint, procs)
	for r := range sinks {
		sinks[r] = make(map[int]*Checkpoint)
	}
	crashed, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{
		TCP:       fastTCP(),
		OpTimeout: 10 * time.Second,
		Wrap: func(rank int, ep comm.Endpoint) comm.Endpoint {
			if rank != crashRank {
				return ep
			}
			return comm.WithFaults(ep, comm.FaultPlan{CrashAtFrame: crashFrame})
		},
	}, func(rank int, fabric comm.Fabric) faultRun {
		cfg := mkCfg()
		cfg.Fabric = fabric
		var out faultRun
		job := NewJob(cfg, faultPolicy(),
			WithAutoCheckpoint(autoEvery, func(step int, ck *Checkpoint) error {
				if !ck.Dirty {
					sinks[rank][step] = ck
				}
				return nil
			}))
		out.res, out.err = job.Run(context.Background())
		return out
	})
	for rank, got := range crashed {
		if got.err == nil {
			t.Fatalf("rank %d completed despite the injected crash (crash frame %d)", rank, crashFrame)
		}
		if rank == crashRank && !errors.Is(got.err, comm.ErrCrashed) {
			t.Fatalf("crashed rank error should wrap ErrCrashed: %v", got.err)
		}
		if got.res == nil {
			t.Fatalf("rank %d returned no partial Result", rank)
		}
	}

	// Gang-restart line: the newest step every rank persisted.
	common := -1
	for step := range sinks[0] {
		ok := true
		for r := 1; r < procs; r++ {
			if _, have := sinks[r][step]; !have {
				ok = false
				break
			}
		}
		if ok && step > common {
			common = step
		}
	}
	if common < autoEvery {
		t.Fatalf("no common auto-checkpoint step across ranks (crash frame %d, sinks %v)", crashFrame, sinks)
	}

	// Phase 2: every rank — including the crashed one — resumes from the
	// common step on a fresh mesh and runs to completion.
	recoveries := make([]int, procs)
	resumed, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{}, func(rank int, fabric comm.Fabric) *Result {
		cfg := mkCfg()
		cfg.Fabric = fabric
		res, err := NewJob(cfg, faultPolicy(),
			WithResume(sinks[rank][common]),
			WithObserver(ObserverFunc(func(e Event) {
				if re, ok := e.(RecoveryEvent); ok {
					recoveries[rank] = re.Step
				}
			}))).Run(context.Background())
		if err != nil {
			panic(err)
		}
		return res
	})
	for rank, got := range resumed {
		if got.Digest() != want.Digest() {
			t.Fatalf("rank %d recovered digest %s != uninterrupted digest %s (resumed from step %d)",
				rank, got.Digest(), want.Digest(), common)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d recovered Result diverged beyond the digest:\n recovered: %+v\n      full: %+v", rank, got, want)
		}
		if recoveries[rank] != common {
			t.Fatalf("rank %d RecoveryEvent step %d, want %d", rank, recoveries[rank], common)
		}
	}
}

// TestSSPCrashTakesTheFaultPath: a fabric failure inside the SSP event loop
// is an ordinary fault, not a panic — every rank gets the typed error, one
// FaultEvent, and the partial Result the run had earned: an evaluation
// history that is a prefix of the clean run's.
func TestSSPCrashTakesTheFaultPath(t *testing.T) {
	const crashRank = 1
	type outcome struct {
		res    *Result
		err    error
		faults []FaultEvent
		frames int // frames this rank sent
	}
	run := func(crashFrame int) []outcome {
		results, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{
			Loopback:  true,
			OpTimeout: 10 * time.Second,
			Wrap: func(rank int, ep comm.Endpoint) comm.Endpoint {
				if rank != crashRank {
					return ep
				}
				return comm.WithFaults(ep, comm.FaultPlan{CrashAtFrame: crashFrame})
			},
		}, func(rank int, fabric comm.Fabric) outcome {
			cfg := faultCfg(124)
			cfg.Fabric = fabric
			var out outcome
			job := NewJob(cfg, &SSPPolicy{Staleness: 3}, WithObserver(ObserverFunc(func(e Event) {
				if ev, ok := e.(FaultEvent); ok {
					out.faults = append(out.faults, ev)
				}
			})))
			out.res, out.err = job.Run(context.Background())
			out.frames = int(fabric.(*comm.Mesh).Endpoint().NetStats().FramesSent)
			return out
		})
		return results
	}
	clean := run(0)
	for rank, got := range clean {
		if got.err != nil {
			t.Fatalf("clean run failed on rank %d: %v", rank, got.err)
		}
	}
	want := clean[0].res.History

	// Crash three quarters of the way through the frames the clean run sent:
	// past the first evaluations, short of the last.
	for rank, got := range run(clean[crashRank].frames * 3 / 4) {
		var pe *comm.PeerError
		if !errors.As(got.err, &pe) {
			t.Fatalf("rank %d error is not a *comm.PeerError: %v", rank, got.err)
		}
		if got.res == nil {
			t.Fatalf("rank %d returned no partial Result", rank)
		}
		if len(got.faults) != 1 || got.faults[0].Err != got.err {
			t.Fatalf("rank %d observed FaultEvents %v, want exactly the returned error", rank, got.faults)
		}
		h := got.res.History
		if len(h) == 0 || len(h) >= len(want) || !reflect.DeepEqual(h, want[:len(h)]) {
			t.Fatalf("rank %d partial history is not a proper prefix of the clean run's:\n partial: %+v\n   clean: %+v", rank, h, want)
		}
		if got.res.LSSR != -1 || got.res.Steps == 0 || got.res.Steps >= clean[0].res.Steps {
			t.Fatalf("rank %d partial Result inconsistent: %+v", rank, got.res)
		}
	}
}
