package train

import (
	"fmt"
	"strconv"
	"strings"
)

// The composite policies. Sync-Switch (Li et al., 2021) showed that the
// best synchronization scheme changes over a run — tight synchronization
// while the loss landscape moves fast, loose once it settles — and the old
// per-method loops structurally could not express that. SwitchPolicy and
// SchedulePolicy host exactly those hybrids on top of any step-based
// policies.

// SwitchPolicy runs From until a boundary fires, then To for the rest of
// the run — e.g. BSP warmup flowing into SelSync steady-state. The boundary
// is a step number, a Signals predicate, or both (whichever fires first);
// the switch is one-way and permanent.
type SwitchPolicy struct {
	From, To SyncPolicy
	// AtStep switches before the decision of step AtStep: From governs
	// steps 0..AtStep-1, To governs from AtStep on. 0 disables the step
	// boundary (When must then be set).
	AtStep int
	// When, if non-nil, is evaluated each step while From still governs;
	// the first true switches immediately (To decides that same step).
	// Predicates must be rank-invariant on a multi-process fabric: derive
	// them from Signals state or collective votes (Signals.VoteAny), never
	// from one rank's private view.
	When func(sig *Signals) bool

	switched bool
}

// Name implements SyncPolicy. Run calls it before the Init hook, so the
// missing-policy diagnostic lives here, at the earliest touch point.
func (p *SwitchPolicy) Name() string {
	if p.From == nil || p.To == nil {
		panic("train: SwitchPolicy needs both From and To")
	}
	at := "when"
	if p.AtStep > 0 {
		at = strconv.Itoa(p.AtStep)
	}
	return fmt.Sprintf("Switch(%s→%s@%s)", p.From.Name(), p.To.Name(), at)
}

// Init implements PolicyInit: validate the composition and initialize both
// inner policies.
func (p *SwitchPolicy) Init(sig *Signals) {
	if p.AtStep <= 0 && p.When == nil {
		panic("train: SwitchPolicy needs AtStep > 0 or a When predicate")
	}
	rejectEventLoop(p.From)
	rejectEventLoop(p.To)
	initPolicy(p.From, sig)
	initPolicy(p.To, sig)
	p.switched = false
}

// Decide implements SyncPolicy.
func (p *SwitchPolicy) Decide(step int, sig *Signals) Action {
	if !p.switched && ((p.AtStep > 0 && step >= p.AtStep) || (p.When != nil && p.When(sig))) {
		p.switched = true
		sig.EmitPhaseSwitch(p.From.Name(), p.To.Name())
	}
	if p.switched {
		return p.To.Decide(step, sig)
	}
	return p.From.Decide(step, sig)
}

// PlanStep implements Preschedulable with the plan of the inner policy that
// will decide the step, when the step number alone settles which: a When
// predicate that has not fired yet is evaluated in Decide, after compute, so
// until it fires the composite declares nothing.
func (p *SwitchPolicy) PlanStep(step int) StepPlan {
	switch {
	case p.switched || (p.AtStep > 0 && step >= p.AtStep):
		return innerPlan(p.To, step)
	case p.When == nil:
		return innerPlan(p.From, step)
	}
	return StepPlan{}
}

// CheckpointState implements CheckpointablePolicy: the one-way switch flag
// plus both inner policies' states. A predicate switch (When) does not
// re-fire on resume — the captured flag already encodes whether it fired.
func (p *SwitchPolicy) CheckpointState() PolicyState {
	var w uint64
	if p.switched {
		w = 1
	}
	return PolicyState{
		Name:  p.Name(),
		Words: []uint64{w},
		Sub:   []PolicyState{capturePolicyState(p.From), capturePolicyState(p.To)},
	}
}

// RestoreState implements CheckpointablePolicy.
func (p *SwitchPolicy) RestoreState(st PolicyState) error {
	if len(st.Words) != 1 || len(st.Sub) != 2 {
		return fmt.Errorf("train: Switch checkpoint state wants 1 word and 2 inner states, got %d/%d", len(st.Words), len(st.Sub))
	}
	p.switched = st.Words[0] != 0
	if err := restorePolicyState(p.From, st.Sub[0]); err != nil {
		return err
	}
	return restorePolicyState(p.To, st.Sub[1])
}

// PolicyPhase is one entry of a SchedulePolicy: a policy and how many steps
// it governs. Steps must be positive for every phase but the last, whose
// Steps must be 0 (it runs to the end of training).
type PolicyPhase struct {
	Policy SyncPolicy
	Steps  int
}

// SchedulePolicy runs a declarative list of phases back to back — the
// schedule form of SwitchPolicy, parseable from a string like
// "bsp:500,selsync" (see ParseSchedule).
type SchedulePolicy struct {
	Phases []PolicyPhase

	idx      int
	boundary int // step at which the current phase ends
}

// Name implements SyncPolicy.
func (p *SchedulePolicy) Name() string {
	parts := make([]string, len(p.Phases))
	for i, ph := range p.Phases {
		parts[i] = ph.Policy.Name()
		if ph.Steps > 0 {
			parts[i] += ":" + strconv.Itoa(ph.Steps)
		}
	}
	return fmt.Sprintf("Schedule(%s)", strings.Join(parts, "→"))
}

// Init implements PolicyInit: validate the phase list and initialize every
// inner policy.
func (p *SchedulePolicy) Init(sig *Signals) {
	if len(p.Phases) == 0 {
		panic("train: SchedulePolicy needs at least one phase")
	}
	for i, ph := range p.Phases {
		last := i == len(p.Phases)-1
		if !last && ph.Steps <= 0 {
			panic(fmt.Sprintf("train: schedule phase %d (%s) needs a positive step count", i, ph.Policy.Name()))
		}
		if last && ph.Steps != 0 {
			panic("train: the last schedule phase runs to the end of training; leave its Steps 0")
		}
		rejectEventLoop(ph.Policy)
		initPolicy(ph.Policy, sig)
	}
	p.idx = 0
	p.boundary = p.Phases[0].Steps
}

// Decide implements SyncPolicy.
func (p *SchedulePolicy) Decide(step int, sig *Signals) Action {
	for p.idx < len(p.Phases)-1 && step >= p.boundary {
		sig.EmitPhaseSwitch(p.Phases[p.idx].Policy.Name(), p.Phases[p.idx+1].Policy.Name())
		p.idx++
		p.boundary += p.Phases[p.idx].Steps
	}
	return p.Phases[p.idx].Policy.Decide(step, sig)
}

// PlanStep implements Preschedulable with the plan of the phase step falls
// in — Decide's walk over the boundaries, without moving the cursor.
func (p *SchedulePolicy) PlanStep(step int) StepPlan {
	idx, boundary := p.idx, p.boundary
	for idx < len(p.Phases)-1 && step >= boundary {
		idx++
		boundary += p.Phases[idx].Steps
	}
	return innerPlan(p.Phases[idx].Policy, step)
}

// CheckpointState implements CheckpointablePolicy: the phase cursor plus
// every inner policy's state.
func (p *SchedulePolicy) CheckpointState() PolicyState {
	st := PolicyState{
		Name:  p.Name(),
		Words: []uint64{uint64(p.idx), uint64(p.boundary)},
	}
	for _, ph := range p.Phases {
		st.Sub = append(st.Sub, capturePolicyState(ph.Policy))
	}
	return st
}

// RestoreState implements CheckpointablePolicy.
func (p *SchedulePolicy) RestoreState(st PolicyState) error {
	if len(st.Words) != 2 || len(st.Sub) != len(p.Phases) {
		return fmt.Errorf("train: Schedule checkpoint state wants 2 words and %d inner states, got %d/%d",
			len(p.Phases), len(st.Words), len(st.Sub))
	}
	if idx := int(st.Words[0]); idx < 0 || idx >= len(p.Phases) {
		return fmt.Errorf("train: Schedule checkpoint phase index %d out of range", idx)
	}
	p.idx = int(st.Words[0])
	p.boundary = int(st.Words[1])
	for i, ph := range p.Phases {
		if err := restorePolicyState(ph.Policy, st.Sub[i]); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchedule parses a schedule string into a policy. The grammar is a
// comma-separated phase list
//
//	spec   = phase {"," phase}
//	phase  = name [":" steps]
//
// where every phase but the last needs a step count and the last must not
// have one (it runs to the end of training). mk maps a phase name to its
// policy — the caller binds method names to options there ("selsync" to its
// δ and mode, say). A single bare name returns mk's policy directly, so
// pure methods and hybrid schedules parse through the same entry point.
// Event-loop methods (SSP) cannot appear in a multi-phase schedule.
func ParseSchedule(spec string, mk func(name string) (SyncPolicy, error)) (SyncPolicy, error) {
	parts := strings.Split(spec, ",")
	phases := make([]PolicyPhase, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("train: empty phase in schedule %q", spec)
		}
		name, stepsStr, bounded := strings.Cut(part, ":")
		last := i == len(parts)-1
		steps := 0
		if bounded {
			if last {
				return nil, fmt.Errorf("train: the last phase of %q runs to the end of training and must not carry a step count", spec)
			}
			n, err := strconv.Atoi(strings.TrimSpace(stepsStr))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("train: phase %q needs a positive step count", part)
			}
			steps = n
		} else if !last {
			return nil, fmt.Errorf("train: phase %q needs a step count (every phase but the last is bounded)", part)
		}
		policy, err := mk(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		phases = append(phases, PolicyPhase{Policy: policy, Steps: steps})
	}
	if len(phases) == 1 {
		return phases[0].Policy, nil
	}
	for _, ph := range phases {
		if _, ok := ph.Policy.(eventLoopPolicy); ok {
			return nil, fmt.Errorf("train: %s replaces the step loop and cannot appear in a schedule", ph.Policy.Name())
		}
	}
	return &SchedulePolicy{Phases: phases}, nil
}

// innerPlan is an inner policy's plan, or the zero plan when it declares
// nothing.
func innerPlan(p SyncPolicy, step int) StepPlan {
	if ps, ok := p.(Preschedulable); ok {
		return ps.PlanStep(step)
	}
	return StepPlan{}
}

func rejectEventLoop(p SyncPolicy) {
	if _, ok := p.(eventLoopPolicy); ok {
		panic(fmt.Sprintf("train: %s replaces the step loop and cannot be composed", p.Name()))
	}
}

func initPolicy(p SyncPolicy, sig *Signals) {
	if init, ok := p.(PolicyInit); ok {
		init.Init(sig)
	}
}
