package train

import (
	"context"
	"reflect"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/opt"
)

// undeclared hides a policy's Preschedulable side — and nothing else: the
// Init hook and the checkpoint state pass through — so the engine runs its
// steps in the undeclared order: compute, decide, apply, one pool dispatch
// each.
type undeclared struct{ inner SyncPolicy }

func (u undeclared) Name() string                         { return u.inner.Name() }
func (u undeclared) Decide(step int, sig *Signals) Action { return u.inner.Decide(step, sig) }
func (u undeclared) Init(sig *Signals)                    { initPolicy(u.inner, sig) }
func (u undeclared) CheckpointState() PolicyState         { return capturePolicyState(u.inner) }
func (u undeclared) RestoreState(st PolicyState) error    { return restorePolicyState(u.inner, st) }

// TestOneDispatchMatchesThreePhase: what a policy declares about a step
// moves work, never results. For every built-in policy and two hybrids, the
// run with the declaration honoured and the run with it hidden end in
// DeepEqual Results and DeepEqual checkpoints — every replica's parameters,
// optimizer state, tracker, clock and counters — while the pool is woken as
// often per step as the declaration promises.
func TestOneDispatchMatchesThreePhase(t *testing.T) {
	selsync := func(mode cluster.AggMode) func() SyncPolicy {
		return func() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: mode} }
	}
	const steps = 24
	for _, tc := range []struct {
		name     string
		policy   func() SyncPolicy
		declared int // pool dispatches over the run with the declaration honoured
	}{
		{"bsp", func() SyncPolicy { return BSPPolicy{} }, 2 * steps},
		{"local", func() SyncPolicy { return LocalSGDPolicy{} }, steps},
		{"selsync-pa", selsync(cluster.ParamAgg), steps},
		{"selsync-ga", selsync(cluster.GradAgg), 2 * steps},
		{"fedavg", func() SyncPolicy { return &FedAvgPolicy{C: 0.5, E: 0.5} }, steps},
		{"switch", func() SyncPolicy {
			return &SwitchPolicy{From: BSPPolicy{}, To: selsync(cluster.ParamAgg)(), AtStep: 7}
		}, 2*7 + (steps - 7)},
		{"bsp:3,selsync", func() SyncPolicy {
			p, err := ParseSchedule("bsp:3,selsync", func(name string) (SyncPolicy, error) {
				if name == "bsp" {
					return BSPPolicy{}, nil
				}
				return selsync(cluster.ParamAgg)(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, 2*3 + (steps - 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(policy SyncPolicy) (*Result, *Checkpoint, int) {
				cfg := smallConfig(51)
				cfg.MaxSteps, cfg.EvalEvery = steps, 1<<20 // one evaluation, at the end
				cfg.TrackDeltas = true
				job := NewJob(cfg, policy)
				res, err := job.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				ck, err := job.Checkpoint(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return res, ck, job.r.cl.Dispatches()
			}
			res, ck, dispatches := run(tc.policy())
			wantRes, wantCk, undeclaredDispatches := run(undeclared{tc.policy()})
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("Results differ:\n declared: %+v\n   hidden: %+v", res, wantRes)
			}
			if !reflect.DeepEqual(ck, wantCk) {
				t.Fatal("checkpoints differ between the declared and the hidden run")
			}
			if res.LocalSteps+res.SyncSteps != steps {
				t.Fatalf("run made %d steps, want %d", res.LocalSteps+res.SyncSteps, steps)
			}
			if mixed := res.LocalSteps > 0 && res.SyncSteps > 0; !mixed && tc.name != "bsp" && tc.name != "local" {
				t.Fatalf("the run should mix local and synchronizing steps: %d local, %d sync", res.LocalSteps, res.SyncSteps)
			}
			// The final evaluation's replicas are one more dispatch on a
			// multi-core box and none on one core; count steps only.
			evalDispatches := dispatches - tc.declared
			if evalDispatches < 0 || evalDispatches > 1 {
				t.Fatalf("declared run woke the pool %d times, want %d for its steps (+1 at most for the evaluation)", dispatches, tc.declared)
			}
			if tc.name != "bsp" && undeclaredDispatches-evalDispatches <= tc.declared {
				t.Fatalf("hiding the declaration should cost dispatches: %d hidden, %d declared", undeclaredDispatches-evalDispatches, tc.declared)
			}
		})
	}
}

// TestCompositesPlanForTheDecidingPolicy: a composite answers PlanStep with
// the order hints of the inner policy that will decide the step, declines
// while an unfired When predicate leaves the decider open, and does not move
// its own cursor by answering.
func TestCompositesPlanForTheDecidingPolicy(t *testing.T) {
	pa := SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}
	ga := SelSyncPolicy{Delta: 0.01, Mode: cluster.GradAgg}
	both, observe, local := StepPlan{Observe: true, LocalFirst: true}, StepPlan{Observe: true}, StepPlan{LocalFirst: true}

	atStep := &SwitchPolicy{From: BSPPolicy{}, To: pa, AtStep: 5}
	if got := atStep.PlanStep(4); !reflect.DeepEqual(got, StepPlan{}) {
		t.Fatalf("step 4 of bsp→selsync@5 is BSP's and BSP declares no order: %+v", got)
	}
	if got := atStep.PlanStep(5); !reflect.DeepEqual(got, both) {
		t.Fatalf("step 5 of bsp→selsync@5 is SelSync-PA's: %+v", got)
	}

	when := &SwitchPolicy{From: pa, To: LocalSGDPolicy{}, When: func(*Signals) bool { return false }}
	if got := when.PlanStep(0); !reflect.DeepEqual(got, StepPlan{}) {
		t.Fatalf("a When predicate that may fire in Decide leaves the step's decider open: %+v", got)
	}
	when.switched = true
	if got := when.PlanStep(1); !reflect.DeepEqual(got, local) {
		t.Fatalf("once switched the step is LocalSGD's: %+v", got)
	}

	sched := &SchedulePolicy{Phases: []PolicyPhase{{BSPPolicy{}, 3}, {ga, 2}, {LocalSGDPolicy{}, 0}}}
	sched.Init(&Signals{})
	before := sched.CheckpointState()
	for step, want := range map[int]StepPlan{0: {}, 2: {}, 3: observe, 4: observe, 5: local, 99: local} {
		if got := sched.PlanStep(step); !reflect.DeepEqual(got, want) {
			t.Fatalf("schedule step %d: plan %+v, want %+v", step, got, want)
		}
	}
	if after := sched.CheckpointState(); !reflect.DeepEqual(after, before) {
		t.Fatalf("PlanStep moved the schedule's cursor: %+v → %+v", before, after)
	}
}

// hookless hides a network's GradScheduler side — and nothing else — so its
// worker reports no gradient block during the backward pass and does each
// step's tracker and update work over the whole arena after it.
type hookless struct{ nn.Network }

// TestBlockApplyMatchesWholeStep: taking each block's Δ(g_i) norm and
// applying the worker's own update to it inside the backward pass moves
// work, never results. For every zoo model, both optimizer families and
// every built-in way a step can end, a run whose networks report their
// blocks and a run whose networks hide the hook end in DeepEqual Results
// and DeepEqual checkpoints: parameters, velocity or moments, trackers.
func TestBlockApplyMatchesWholeStep(t *testing.T) {
	selsync := func(mode cluster.AggMode) func() SyncPolicy {
		return func() SyncPolicy { return SelSyncPolicy{Delta: 0.01, Mode: mode} }
	}
	policies := []struct {
		name   string
		policy func() SyncPolicy
	}{
		{"selsync-pa", selsync(cluster.ParamAgg)},
		{"selsync-ga", selsync(cluster.GradAgg)},
		{"local", func() SyncPolicy { return LocalSGDPolicy{} }},
		{"fedavg", func() SyncPolicy { return &FedAvgPolicy{C: 0.5, E: 0.5} }},
		{"bsp", func() SyncPolicy { return BSPPolicy{} }},
		{"bsp:3,selsync", func() SyncPolicy {
			p, err := ParseSchedule("bsp:3,selsync", func(name string) (SyncPolicy, error) {
				if name == "bsp" {
					return BSPPolicy{}, nil
				}
				return selsync(cluster.ParamAgg)(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	optimizers := map[string]cluster.OptBuilder{
		"sgd":  func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, 0.9, 4e-4) },
		"adam": func(ps []*nn.Param) opt.Optimizer { return opt.NewAdam(ps) },
	}
	for _, model := range nn.ZooNames() {
		for _, optName := range []string{"sgd", "adam"} {
			for _, pc := range policies {
				t.Run(model+"/"+optName+"/"+pc.name, func(t *testing.T) {
					run := func(hide bool) (*Result, *Checkpoint) {
						cfg := blockTestConfig(model)
						cfg.Opt = optimizers[optName]
						policy := pc.policy()
						r := newRunner(cfg, "probe", false)
						if hide {
							for _, w := range r.cl.Workers {
								w.Model.(nn.GradScheduler).SetGradHook(nil)
								w.Model = hookless{w.Model}
							}
						}
						next, _, err := newEngine(r, policy).run(0, nil)
						if err != nil {
							t.Fatal(err)
						}
						ck, err := captureCheckpoint(r, policy, next)
						if err != nil {
							t.Fatal(err)
						}
						// The last step's blocks: all reported by the hook, or
						// none — the run is not comparing a path with itself.
						want := 0
						if hide {
							want = r.cl.Dim()
						}
						for _, w := range r.cl.Workers {
							if got := r.blocks[w.ID].final; got != want {
								t.Fatalf("hide=%v: worker %d's backward pass reported offset %d final, want %d", hide, w.ID, got, want)
							}
						}
						return r.finish(), ck
					}
					res, ck := run(false)
					wantRes, wantCk := run(true)
					if !reflect.DeepEqual(res, wantRes) {
						t.Fatalf("Results differ:\n   blocks: %+v\n   whole: %+v", res, wantRes)
					}
					if !reflect.DeepEqual(ck, wantCk) {
						t.Fatal("checkpoints differ between the per-block and the whole-arena run")
					}
				})
			}
		}
	}
}

// blockTestConfig is a short 2-worker run of a zoo model on its own kind of
// data, evaluated once mid-run and once at the end.
func blockTestConfig(model string) Config {
	f := nn.Zoo()[model]
	cfg := smallConfig(61)
	cfg.Model, cfg.Workers, cfg.Batch = f, 2, 8
	cfg.MaxSteps, cfg.EvalEvery = 10, 5
	cfg.TrackDeltas = true
	if f.Spec.SeqLen > 0 {
		g := data.NewTextGen(nn.LMVocab, 6, 1e2, 61)
		cfg.Train, cfg.Test = g.Dataset("train", 128, nn.LMSeqLen), g.Dataset("test", 32, nn.LMSeqLen)
	} else {
		g := data.NewImageGen(f.Spec.Classes, 1.2, 1.0, 3e3, 61)
		cfg.Train, cfg.Test = g.Dataset("train", 256), g.Dataset("test", 64)
	}
	return cfg
}
