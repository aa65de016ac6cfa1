package gradstat

import (
	"math"
	"testing"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// quadNet is a hand-built network whose loss is the exact quadratic
// ½·wᵀA w − bᵀw, so the Hessian is A and the top eigenvalue is known in
// closed form. It ignores its inputs.
type quadNet struct {
	a      [][]float64
	b      []float64
	params []*nn.Param
}

func newQuadNet(a [][]float64, b []float64) *quadNet {
	ps := []*nn.Param{nn.NewParam("w", len(b))}
	nn.NewArena(ps)
	return &quadNet{a: a, b: b, params: ps}
}

func (q *quadNet) Params() []*nn.Param { return q.params }
func (q *quadNet) Spec() nn.ModelSpec  { return nn.ModelSpec{Name: "quad", Classes: 2, TopK: 1} }

func (q *quadNet) ComputeGradients(x *tensor.Matrix, labels []int) (float64, int) {
	w := q.params[0].Data
	g := q.params[0].Grad
	var loss float64
	for i := range w {
		var aw float64
		for j := range w {
			aw += q.a[i][j] * w[j]
		}
		g[i] = aw - q.b[i]
		loss += 0.5*w[i]*aw - q.b[i]*w[i]
	}
	return loss, 0
}

func (q *quadNet) Evaluate(x *tensor.Matrix, labels []int) (float64, int) {
	l, c := q.ComputeGradients(x, labels)
	return l, c
}

func (q *quadNet) EvaluateRows(*tensor.Matrix, []int, tensor.Vector, tensor.Vector) {}

func TestTopHessianEigenvalueQuadratic(t *testing.T) {
	// Diagonal A: eigenvalues are the diagonal; top is 7.
	a := [][]float64{
		{7, 0, 0},
		{0, 2, 0},
		{0, 0, 0.5},
	}
	net := newQuadNet(a, []float64{1, 1, 1})
	copy(net.params[0].Data, []float64{0.3, -0.2, 0.9})
	x := tensor.NewMatrix(1, 1)
	got := TopHessianEigenvalue(net, x, []int{0}, HessianEigOptions{Iters: 30, Seed: 4})
	if math.Abs(got-7) > 0.05 {
		t.Fatalf("top eigenvalue: got %v want 7", got)
	}
}

func TestTopHessianEigenvalueNonDiagonal(t *testing.T) {
	// A = [[2,1],[1,2]]: eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	net := newQuadNet(a, []float64{0, 0})
	copy(net.params[0].Data, []float64{1, -1})
	x := tensor.NewMatrix(1, 1)
	got := TopHessianEigenvalue(net, x, []int{0}, HessianEigOptions{Iters: 40, Seed: 5})
	if math.Abs(got-3) > 0.05 {
		t.Fatalf("top eigenvalue: got %v want 3", got)
	}
}

func TestTopHessianRestoresParams(t *testing.T) {
	a := [][]float64{{4, 0}, {0, 1}}
	net := newQuadNet(a, []float64{1, 2})
	copy(net.params[0].Data, []float64{0.5, 0.7})
	before := net.params[0].Data.Clone()
	TopHessianEigenvalue(net, tensor.NewMatrix(1, 1), []int{0}, HessianEigOptions{Iters: 5, Seed: 6})
	for i := range before {
		if net.params[0].Data[i] != before[i] {
			t.Fatal("parameters must be restored")
		}
	}
}

func TestTopHessianOnRealNetworkIsPositive(t *testing.T) {
	// Near init on a real model the loss surface curvature along the top
	// direction should be positive and finite.
	f := nn.VGGLite(4)
	net := f.New(11)
	rng := tensor.NewRNG(12)
	x := tensor.NewMatrix(8, nn.ImgFeatures)
	rng.NormVector(x.Data, 0, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	eig := TopHessianEigenvalue(net, x, labels, HessianEigOptions{Iters: 6, Seed: 13})
	if math.IsNaN(eig) || math.IsInf(eig, 0) {
		t.Fatalf("eigenvalue must be finite, got %v", eig)
	}
	if eig <= 0 {
		t.Fatalf("expected positive curvature near init, got %v", eig)
	}
}

func TestHessianOptionsDefaults(t *testing.T) {
	o := HessianEigOptions{}.withDefaults()
	if o.Iters <= 0 || o.FDEps <= 0 || o.RelTol <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}
