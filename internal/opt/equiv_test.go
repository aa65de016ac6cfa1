package opt

import (
	"math"
	"reflect"
	"testing"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// The per-Param reference loops the fused optimizers replaced. They are
// kept verbatim here as the trajectory oracle: the fused arena updates
// must track them to within SIMD reassociation slack (≤1e-12 relative)
// across whole training trajectories on every zoo model.

type refSGD struct {
	params      []*nn.Param
	momentum    float64
	weightDecay float64
	velocity    []tensor.Vector
}

func newRefSGD(params []*nn.Param, momentum, weightDecay float64) *refSGD {
	s := &refSGD{params: params, momentum: momentum, weightDecay: weightDecay}
	s.velocity = make([]tensor.Vector, len(params))
	for i, p := range params {
		s.velocity[i] = tensor.NewVector(len(p.Data))
	}
	return s
}

func (s *refSGD) Step(lr float64) {
	for i, p := range s.params {
		v := s.velocity[i]
		for j, g := range p.Grad {
			g += s.weightDecay * p.Data[j]
			v[j] = s.momentum*v[j] + g
			p.Data[j] -= lr * v[j]
		}
	}
}

type refAdam struct {
	params []*nn.Param
	b1, b2 float64
	eps    float64
	m, v   []tensor.Vector
	t      int
}

func newRefAdam(params []*nn.Param) *refAdam {
	a := &refAdam{params: params, b1: 0.9, b2: 0.999, eps: 1e-8}
	a.m = make([]tensor.Vector, len(params))
	a.v = make([]tensor.Vector, len(params))
	for i, p := range params {
		a.m[i] = tensor.NewVector(len(p.Data))
		a.v[i] = tensor.NewVector(len(p.Data))
	}
	return a
}

func (a *refAdam) Step(lr float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = a.b1*m[j] + (1-a.b1)*g
			v[j] = a.b2*v[j] + (1-a.b2)*g*g
			mhat := m[j] / c1
			vhat := v[j] / c2
			p.Data[j] -= lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
	}
}

// trajectoryClose compares two parameter vectors within 1e-12 relative.
func trajectoryClose(a, b tensor.Vector) (int, bool) {
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff/scale > 1e-12 {
			return i, false
		}
	}
	return -1, true
}

// stepper abstracts the fused and reference optimizers for the
// trajectory-equivalence harness.
type stepper interface{ Step(lr float64) }

// runEquivalence drives two identically initialized replicas of one zoo
// model — one stepped by the fused arena optimizer, one by the per-Param
// reference loop — through `steps` updates with identical synthetic
// gradient sequences, checking the full parameter trajectories stay
// within tolerance after every step.
func runEquivalence(t *testing.T, model string, steps int,
	build func(ps []*nn.Param) stepper, buildRef func(ps []*nn.Param) stepper) {
	t.Helper()
	f := nn.Zoo()[model]
	fused := f.New(9)
	ref := f.New(9)
	fusedPs, refPs := fused.Params(), ref.Params()
	dim := nn.ParamCount(fusedPs)

	optFused := build(fusedPs)
	optRef := buildRef(refPs)

	rng := tensor.NewRNG(99)
	g := tensor.NewVector(dim)
	fusedFlat := tensor.NewVector(dim)
	refFlat := tensor.NewVector(dim)
	for step := 0; step < steps; step++ {
		rng.NormVector(g, 0, 1e-2)
		nn.SetGrads(fusedPs, g)
		nn.SetGrads(refPs, g)
		lr := 0.05 / float64(1+step/10)
		optFused.Step(lr)
		optRef.Step(lr)

		nn.FlattenParams(fusedPs, fusedFlat)
		nn.FlattenParams(refPs, refFlat)
		if i, ok := trajectoryClose(fusedFlat, refFlat); !ok {
			t.Fatalf("%s step %d: trajectories diverged at elem %d: fused %g ref %g",
				model, step, i, fusedFlat[i], refFlat[i])
		}
	}
}

// TestFusedSGDMatchesReferenceTrajectories covers all four zoo models.
func TestFusedSGDMatchesReferenceTrajectories(t *testing.T) {
	for _, model := range nn.ZooNames() {
		t.Run(model, func(t *testing.T) {
			runEquivalence(t, model, 25,
				func(ps []*nn.Param) stepper { return NewSGD(ps, 0.9, 4e-4) },
				func(ps []*nn.Param) stepper { return newRefSGD(ps, 0.9, 4e-4) })
		})
	}
}

// TestFusedAdamMatchesReferenceTrajectories covers all four zoo models.
func TestFusedAdamMatchesReferenceTrajectories(t *testing.T) {
	for _, model := range nn.ZooNames() {
		t.Run(model, func(t *testing.T) {
			runEquivalence(t, model, 25,
				func(ps []*nn.Param) stepper { return NewAdam(ps) },
				func(ps []*nn.Param) stepper { return newRefAdam(ps) })
		})
	}
}

// TestFusedPathIsActuallyFused pins that zoo models take the whole-arena
// path and hand-assembled params take the per-window fallback — both of
// which must still agree with the reference.
func TestFusedPathIsActuallyFused(t *testing.T) {
	net := nn.Zoo()["resnet"].New(3)
	s := NewSGD(net.Params(), 0.9, 0)
	if !s.fused {
		t.Fatal("zoo model must take the fused arena path")
	}
	loose := testParams([]int{10, 20}, false)
	s2 := NewSGD(loose, 0.9, 0)
	if s2.fused {
		t.Fatal("individually allocated params must take the fallback path")
	}
	a2 := NewAdam(loose)
	if a2.fused {
		t.Fatal("individually allocated params must take the fallback path")
	}
}

// testParams returns parameters of the given sizes with values from one
// seeded draw, individually allocated or bound onto one arena.
func testParams(sizes []int, bind bool) []*nn.Param {
	ps := make([]*nn.Param, len(sizes))
	for i, n := range sizes {
		if bind {
			ps[i] = nn.NewParam("p", n)
		} else {
			ps[i] = &nn.Param{Name: "p", Data: tensor.NewVector(n), Grad: tensor.NewVector(n)}
		}
	}
	if bind {
		nn.NewArena(ps)
	}
	r := tensor.NewRNG(6)
	for _, p := range ps {
		r.NormVector(p.Data, 0, 1)
	}
	return ps
}

// TestFallbackMatchesFused runs the same gradient sequence through an
// arena-bound and a loose copy of the same parameter set: the segmented
// fallback and the whole-arena fused update must agree.
func TestFallbackMatchesFused(t *testing.T) {
	rng := tensor.NewRNG(5)
	sizes := []int{5, 17, 64, 3}
	loose := testParams(sizes, false)
	bound := testParams(sizes, true)

	for _, mk := range []struct {
		name  string
		build func(ps []*nn.Param) stepper
	}{
		{"SGD", func(ps []*nn.Param) stepper { return NewSGD(ps, 0.9, 1e-3) }},
		{"Adam", func(ps []*nn.Param) stepper { return NewAdam(ps) }},
	} {
		ol := mk.build(loose)
		ob := mk.build(bound)
		dim := nn.ParamCount(loose)
		g := tensor.NewVector(dim)
		fl, fb := tensor.NewVector(dim), tensor.NewVector(dim)
		for step := 0; step < 10; step++ {
			rng.NormVector(g, 0, 1e-2)
			nn.SetGrads(loose, g)
			nn.SetGrads(bound, g)
			ol.Step(0.05)
			ob.Step(0.05)
		}
		nn.FlattenParams(loose, fl)
		nn.FlattenParams(bound, fb)
		if i, ok := trajectoryClose(fl, fb); !ok {
			t.Fatalf("%s: fallback and fused disagree at %d: %g vs %g", mk.name, i, fl[i], fb[i])
		}
	}
}

// TestStepRangeTilesMatchStep: one step's update applied block by block, the
// blocks in descending order (the order a backward pass releases them) and
// cut anywhere, leaves parameters and optimizer state bit-identical to Step
// over the whole arena — for SGD and Adam, arena-bound and loose parameters,
// over several steps, so Adam's step count must advance once per step.
func TestStepRangeTilesMatchStep(t *testing.T) {
	sizes := []int{5, 17, 64, 3, 9}
	type ranged interface {
		Optimizer
		Checkpointable
	}
	for _, mk := range []struct {
		name  string
		build func(ps []*nn.Param) ranged
	}{
		{"SGD", func(ps []*nn.Param) ranged { return NewSGD(ps, 0.9, 1e-3) }},
		{"Adam", func(ps []*nn.Param) ranged { return NewAdam(ps) }},
	} {
		for _, bind := range []bool{true, false} {
			whole, blocks := testParams(sizes, bind), testParams(sizes, bind)
			ow, ob := mk.build(whole), mk.build(blocks)
			dim := nn.ParamCount(whole)
			rng := tensor.NewRNG(7)
			g := tensor.NewVector(dim)
			for step := 0; step < 6; step++ {
				rng.NormVector(g, 0, 1e-2)
				nn.SetGrads(whole, g)
				nn.SetGrads(blocks, g)
				ow.Step(0.05)
				for hi := dim; hi > 0; {
					lo := max(0, hi-1-rng.Intn(30))
					ob.StepRange(0.05, lo, hi)
					hi = lo
				}
			}
			fw, fb := tensor.NewVector(dim), tensor.NewVector(dim)
			nn.FlattenParams(whole, fw)
			nn.FlattenParams(blocks, fb)
			for i := range fw {
				if math.Float64bits(fw[i]) != math.Float64bits(fb[i]) {
					t.Fatalf("%s bind=%v: element %d is %v after Step, %v after ranges", mk.name, bind, i, fw[i], fb[i])
				}
			}
			if !reflect.DeepEqual(ow.State(), ob.State()) {
				t.Fatalf("%s bind=%v: optimizer state differs between Step and ranges", mk.name, bind)
			}
		}
	}
}
