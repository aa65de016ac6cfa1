package nn

import (
	"errors"
	"math"
	"testing"

	"selsync/internal/tensor"
)

// TestBackwardOverwritesGradients: layers write their gradients, they never
// add to the window's old contents, so nothing needs clearing between steps.
// A network whose gradient arena is filled with NaN, or with noise, before
// ComputeGradients must end with the bits a freshly built network computes
// on the same batch — every zoo model, on the SIMD kernels and the portable
// ones.
func TestBackwardOverwritesGradients(t *testing.T) {
	for _, portable := range []bool{false, true} {
		if portable {
			restore := tensor.ForcePortable()
			if restore == nil {
				continue // no SIMD path to turn off: the first pass was portable
			}
			t.Cleanup(restore)
		}
		for _, name := range ZooNames() {
			f := Zoo()[name]
			x, labels := StepBenchBatch(f, tensor.NewRNG(5))
			fresh := f.New(3)
			fresh.ComputeGradients(x, labels)
			want := fresh.Arena().Grad

			for _, fill := range []struct {
				what string
				fill func(tensor.Vector)
			}{
				{"NaN", func(g tensor.Vector) { g.Fill(math.NaN()) }},
				{"noise", func(g tensor.Vector) { tensor.NewRNG(7).NormVector(g, 0, 10) }},
			} {
				net := f.New(3)
				fill.fill(net.Arena().Grad)
				net.ComputeGradients(x, labels)
				for i, g := range net.Arena().Grad {
					if math.Float64bits(g) != math.Float64bits(want[i]) {
						t.Fatalf("%s (portable=%v), arena pre-filled with %s: gradient %d is %v, a fresh network's is %v",
							name, portable, fill.what, i, g, want[i])
					}
				}
			}
		}
	}
}

// TestSharedParamRefused: a parameter used by two layers would need its
// gradients added, and layers write theirs, so NewFeedForwardNet refuses it
// with a typed panic naming it.
func TestSharedParamRefused(t *testing.T) {
	a, b := NewDense("a", 4, 4), NewDense("b", 4, 4)
	b.W = a.W
	defer func() {
		err, _ := recover().(error)
		var shared *SharedParamError
		if !errors.As(err, &shared) || shared.Name != "a.W" {
			t.Fatalf("want a *SharedParamError naming a.W, got %v", err)
		}
	}()
	NewFeedForwardNet(NewSequential(a, NewReLU(), b), ModelSpec{Name: "shared"})
}
