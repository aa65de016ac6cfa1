package opt

import (
	"math"
	"testing"
	"testing/quick"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

func oneParam(vals ...float64) []*nn.Param {
	ps := []*nn.Param{nn.NewParam("w", len(vals))}
	nn.NewArena(ps)
	copy(ps[0].Data, vals)
	return ps
}

func setGrad(ps []*nn.Param, vals ...float64) {
	copy(ps[0].Grad, vals)
}

func TestSGDPlain(t *testing.T) {
	ps := oneParam(1.0)
	sgd := NewSGD(ps, 0, 0)
	setGrad(ps, 0.5)
	sgd.Step(0.1)
	if math.Abs(ps[0].Data[0]-0.95) > 1e-12 {
		t.Fatalf("plain SGD: got %v want 0.95", ps[0].Data[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	ps := oneParam(0.0)
	sgd := NewSGD(ps, 0.9, 0)
	setGrad(ps, 1.0)
	sgd.Step(1.0) // v=1, w=-1
	setGrad(ps, 1.0)
	sgd.Step(1.0) // v=1.9, w=-2.9
	if math.Abs(ps[0].Data[0]+2.9) > 1e-12 {
		t.Fatalf("momentum SGD: got %v want -2.9", ps[0].Data[0])
	}
}

func TestSGDWeightDecayPullsTowardZero(t *testing.T) {
	ps := oneParam(10.0)
	sgd := NewSGD(ps, 0, 0.1)
	setGrad(ps, 0)
	sgd.Step(1.0)
	if math.Abs(ps[0].Data[0]-9.0) > 1e-12 {
		t.Fatalf("weight decay: got %v want 9.0", ps[0].Data[0])
	}
}

func TestSGDReset(t *testing.T) {
	ps := oneParam(0.0)
	sgd := NewSGD(ps, 0.9, 0)
	setGrad(ps, 1.0)
	sgd.Step(1.0)
	sgd.Reset()
	setGrad(ps, 1.0)
	sgd.Step(1.0) // velocity restarted: step is exactly -1
	if math.Abs(ps[0].Data[0]+2.0) > 1e-12 {
		t.Fatalf("after reset: got %v want -2.0", ps[0].Data[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step is ≈ lr·sign(g).
	ps := oneParam(0.0)
	adam := NewAdam(ps)
	setGrad(ps, 0.123)
	adam.Step(0.01)
	if math.Abs(ps[0].Data[0]+0.01) > 1e-6 {
		t.Fatalf("first Adam step: got %v want ≈ -0.01", ps[0].Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)² starting at 0.
	ps := oneParam(0.0)
	adam := NewAdam(ps)
	for i := 0; i < 2000; i++ {
		setGrad(ps, 2*(ps[0].Data[0]-3))
		adam.Step(0.05)
	}
	if math.Abs(ps[0].Data[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: %v", ps[0].Data[0])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	ps := oneParam(0.0)
	sgd := NewSGD(ps, 0.9, 0)
	for i := 0; i < 200; i++ {
		setGrad(ps, 2*(ps[0].Data[0]-3))
		sgd.Step(0.05)
	}
	if math.Abs(ps[0].Data[0]-3) > 0.01 {
		t.Fatalf("SGD did not converge: %v", ps[0].Data[0])
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{Base: 0.1, Factor: 0.1, Milestones: []int{100, 200}}
	cases := []struct {
		step int
		want float64
	}{{0, 0.1}, {99, 0.1}, {100, 0.01}, {199, 0.01}, {200, 0.001}, {1000, 0.001}}
	for _, c := range cases {
		if got := s.LR(c.step); math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("StepDecay at %d: got %v want %v", c.step, got, c.want)
		}
	}
}

func TestExpDecay(t *testing.T) {
	e := ExpDecay{Base: 2.0, Factor: 0.8, Interval: 2000}
	if got := e.LR(0); got != 2.0 {
		t.Fatalf("ExpDecay at 0: %v", got)
	}
	if got := e.LR(1999); got != 2.0 {
		t.Fatalf("ExpDecay at 1999: %v", got)
	}
	if got := e.LR(2000); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("ExpDecay at 2000: %v", got)
	}
	if got := e.LR(4000); math.Abs(got-1.28) > 1e-12 {
		t.Fatalf("ExpDecay at 4000: %v", got)
	}
	zero := ExpDecay{Base: 1, Factor: 0.5, Interval: 0}
	if zero.LR(100) != 1 {
		t.Fatal("zero interval must mean constant")
	}
}

func TestConstant(t *testing.T) {
	c := Constant{Rate: 1e-4}
	if c.LR(0) != 1e-4 || c.LR(99999) != 1e-4 {
		t.Fatal("Constant schedule must be constant")
	}
}

// Property: schedules are non-increasing in the step index for decay
// factors below 1.
func TestQuickSchedulesMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		sd := StepDecay{Base: 1, Factor: 0.5, Milestones: []int{50, 500, 5000}}
		ed := ExpDecay{Base: 1, Factor: 0.9, Interval: 100}
		return sd.LR(s1) >= sd.LR(s2) && ed.LR(s1) >= ed.LR(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: an SGD step with zero gradient and zero weight decay leaves
// parameters unchanged.
func TestQuickSGDZeroGradFixedPoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := testParams([]int{8}, true)[0]
		rng.NormVector(p.Data, 0, 1)
		before := p.Data.Clone()
		sgd := NewSGD([]*nn.Param{p}, 0.9, 0)
		sgd.Step(0.1)
		for i := range before {
			if p.Data[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
