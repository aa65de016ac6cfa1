package train

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"selsync/internal/cluster"
)

// testMk binds the method names to fixed options for schedule parsing in
// tests.
func testMk(name string) (SyncPolicy, error) {
	switch name {
	case "bsp":
		return BSPPolicy{}, nil
	case "local":
		return LocalSGDPolicy{}, nil
	case "selsync":
		return SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}, nil
	case "ssp":
		return &SSPPolicy{Staleness: 3}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// stripMethod zeroes the name-carrying field so Results from differently
// labeled but behaviorally identical policies can be compared numerically.
func stripMethod(res *Result) *Result {
	res.Method = ""
	return res
}

func TestSwitchPolicyChangesSyncBehaviorAtBoundary(t *testing.T) {
	cfg := smallConfig(41)
	cfg.MaxSteps = 50
	res := mustRun(cfg, &SwitchPolicy{From: BSPPolicy{}, To: LocalSGDPolicy{}, AtStep: 20})
	// Every step before the boundary synchronizes, none after: the switch
	// demonstrably changes sync behavior exactly at step 20.
	if res.SyncSteps != 20 || res.LocalSteps != 30 {
		t.Fatalf("boundary not respected: sync=%d local=%d (want 20/30)", res.SyncSteps, res.LocalSteps)
	}
	if !strings.Contains(res.Method, "Switch(BSP→LocalSGD@20)") {
		t.Fatalf("method label: %q", res.Method)
	}

	// The reverse hybrid flips the counts.
	cfg2 := smallConfig(41)
	cfg2.MaxSteps = 50
	rev := mustRun(cfg2, &SwitchPolicy{From: LocalSGDPolicy{}, To: BSPPolicy{}, AtStep: 20})
	if rev.LocalSteps != 20 || rev.SyncSteps != 30 {
		t.Fatalf("reverse boundary not respected: sync=%d local=%d (want 30/20)", rev.SyncSteps, rev.LocalSteps)
	}
}

func TestSwitchPolicyPredicateMatchesStepBoundary(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(42)
		cfg.MaxSteps = 30
		return cfg
	}
	atStep := mustRun(mkCfg(), &SwitchPolicy{
		From: BSPPolicy{}, To: SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}, AtStep: 10,
	})
	when := mustRun(mkCfg(), &SwitchPolicy{
		From: BSPPolicy{}, To: SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg},
		When: func(sig *Signals) bool { return sig.Step >= 10 },
	})
	if !strings.Contains(when.Method, "@when") {
		t.Fatalf("predicate switch label: %q", when.Method)
	}
	a, b := fmt.Sprintf("%+v", stripMethod(atStep)), fmt.Sprintf("%+v", stripMethod(when))
	if a != b {
		t.Fatalf("a When predicate firing at step 10 must match AtStep 10:\n at: %s\nwhen: %s", a, b)
	}
}

func TestSchedulePolicyPhases(t *testing.T) {
	cfg := smallConfig(43)
	cfg.MaxSteps = 30
	res := mustRun(cfg, &SchedulePolicy{Phases: []PolicyPhase{
		{Policy: BSPPolicy{}, Steps: 10},
		{Policy: LocalSGDPolicy{}, Steps: 10},
		{Policy: BSPPolicy{}},
	}})
	if res.SyncSteps != 20 || res.LocalSteps != 10 {
		t.Fatalf("phase accounting wrong: sync=%d local=%d (want 20/10)", res.SyncSteps, res.LocalSteps)
	}
	if !strings.Contains(res.Method, "Schedule(BSP:10→LocalSGD:10→BSP)") {
		t.Fatalf("method label: %q", res.Method)
	}
}

func TestScheduleStringMatchesSwitchPolicy(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(44)
		cfg.MaxSteps = 24
		return cfg
	}
	policy, err := ParseSchedule("bsp:8,selsync", testMk)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := mustRun(mkCfg(), policy)
	switched := mustRun(mkCfg(), &SwitchPolicy{
		From: BSPPolicy{}, To: SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg}, AtStep: 8,
	})
	a, b := fmt.Sprintf("%+v", stripMethod(scheduled)), fmt.Sprintf("%+v", stripMethod(switched))
	if a != b {
		t.Fatalf("schedule and switch with the same boundary must agree:\nsched: %s\n  sw: %s", a, b)
	}
	if scheduled.SyncSteps < 8 {
		t.Fatalf("the BSP phase alone gives ≥ 8 sync steps, got %d", scheduled.SyncSteps)
	}
}

func TestParseScheduleSingleNameReturnsPurePolicy(t *testing.T) {
	policy, err := ParseSchedule("bsp", testMk)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := policy.(BSPPolicy); !ok {
		t.Fatalf("bare name must return the named policy, got %T", policy)
	}
	// And a pure-schedule run is the pure method's run.
	cfg := smallConfig(45)
	cfg.MaxSteps = 12
	a := mustRun(cfg, policy)
	cfg2 := smallConfig(45)
	cfg2.MaxSteps = 12
	b := mustRun(cfg2, BSPPolicy{})
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("ParseSchedule(\"bsp\") must reproduce a BSPPolicy run exactly")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"",                 // empty phase
		"bsp:10,,local",    // empty middle phase
		"bsp:10,local,",    // trailing comma (empty last phase)
		",bsp:10,local",    // leading comma
		"bsp,local",        // first phase unbounded
		"bsp:0,local",      // non-positive step count
		"bsp:-5,local",     // negative step count
		"bsp:x,local",      // non-numeric step count
		"bsp:10,local:20",  // last phase bounded
		"nope:10,local",    // unknown name propagates mk's error
		"nope",             // unknown bare name
		"bsp:10,nope:5,局部", // unknown names anywhere
		"ssp:10,bsp",       // event-loop method in a schedule
		"bsp:10,ssp",       // ... in any position
	} {
		if _, err := ParseSchedule(spec, testMk); err == nil {
			t.Fatalf("spec %q must fail to parse", spec)
		}
	}
	// Whitespace around phases and counts is tolerated.
	if _, err := ParseSchedule(" bsp : 10 , local ", testMk); err != nil {
		t.Fatalf("whitespace must be tolerated: %v", err)
	}
	// A lone event-loop method is fine: it is not composed.
	if _, err := ParseSchedule("ssp", testMk); err != nil {
		t.Fatalf("pure ssp must parse: %v", err)
	}
}

func TestCompositeRejectsEventLoopPolicies(t *testing.T) {
	cfg := smallConfig(46)
	cfg.MaxSteps = 5
	_, err := NewJob(cfg, &SwitchPolicy{From: &SSPPolicy{Staleness: 3}, To: BSPPolicy{}, AtStep: 2}).
		Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "SSP") {
		t.Fatalf("composing SSP must be refused by name, got %v", err)
	}
}

// everyKth is a user-style custom policy: parameter-average every k-th
// step, local otherwise — exercising the public extension surface.
type everyKth struct{ k int }

func (p everyKth) Name() string { return fmt.Sprintf("EveryKth(%d)", p.k) }
func (p everyKth) Decide(step int, sig *Signals) Action {
	if (step+1)%p.k == 0 {
		return Action{Kind: ActSyncParams}
	}
	return Action{Kind: ActLocal}
}

func TestCustomPolicyThroughPublicSurface(t *testing.T) {
	cfg := smallConfig(47)
	cfg.MaxSteps = 30
	res := mustRun(cfg, everyKth{k: 3})
	if res.SyncSteps != 10 || res.LocalSteps != 20 {
		t.Fatalf("custom cadence wrong: sync=%d local=%d (want 10/20)", res.SyncSteps, res.LocalSteps)
	}
	if res.Method != "EveryKth(3)" {
		t.Fatalf("method label: %q", res.Method)
	}
	if res.BestMetric < 50 {
		t.Fatalf("periodic averaging should still learn the easy task: %.1f%%", res.BestMetric)
	}
}

// TestTrackDeltasIsPureObservability pins the diagnostics/behavior split:
// turning the Fig. 5 delta series on must not change a hybrid run's
// trajectory. The BSP warmup's recorded gradient norms flow into a private
// diagnostics tracker, never into the voting tracker the SelSync phase
// reads — with a shared tracker the warmup pre-warms the EWMA and flips
// later votes.
func TestTrackDeltasIsPureObservability(t *testing.T) {
	run := func(track bool) *Result {
		cfg := smallConfig(77)
		cfg.MaxSteps = 60
		cfg.TrackDeltas = track
		return mustRun(cfg, &SwitchPolicy{
			From:   BSPPolicy{},
			To:     SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg},
			AtStep: 20,
		})
	}
	on, off := run(true), run(false)
	if len(on.Deltas) == 0 || len(off.Deltas) != 0 {
		t.Fatalf("delta series recording wrong: on=%d off=%d", len(on.Deltas), len(off.Deltas))
	}
	on.Deltas = nil
	if a, b := fmt.Sprintf("%+v", on), fmt.Sprintf("%+v", off); a != b {
		t.Fatalf("TrackDeltas changed the training trajectory:\n on: %s\noff: %s", a, b)
	}
}

func TestActionKindStrings(t *testing.T) {
	for kind, want := range map[ActionKind]string{
		ActLocal: "local", ActSyncGrads: "sync-grads",
		ActSyncParams: "sync-params", ActRoundAverage: "round-average",
	} {
		if kind.String() != want {
			t.Fatalf("ActionKind(%d).String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
}
