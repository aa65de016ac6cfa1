package nn

import (
	"math"
	"testing"
	"testing/quick"

	"selsync/internal/tensor"
)

func TestParamFlattenRoundTrip(t *testing.T) {
	d := bind(tensor.NewRNG(1), NewDense("d", 4, 3))
	ps := d.Params()
	n := ParamCount(ps)
	if n != 4*3+3 {
		t.Fatalf("ParamCount: got %d", n)
	}
	flat := tensor.NewVector(n)
	FlattenParams(ps, flat)
	// Mutate, write back, flatten again: must round-trip.
	flat.Scale(2)
	SetParams(ps, flat)
	flat2 := tensor.NewVector(n)
	FlattenParams(ps, flat2)
	for i := range flat {
		if flat[i] != flat2[i] {
			t.Fatal("flatten/set round trip failed")
		}
	}
}

func TestGradFlattenAndZero(t *testing.T) {
	d := bind(nil, NewDense("d", 3, 2))
	ps := d.Params()
	g := tensor.NewVector(ParamCount(ps))
	for i := range g {
		g[i] = float64(i + 1)
	}
	SetGrads(ps, g)
	if got := GradNorm2(ps); math.Abs(got-g.Norm2()) > 1e-12 {
		t.Fatalf("GradNorm2: got %v want %v", got, g.Norm2())
	}
	out := tensor.NewVector(len(g))
	FlattenGrads(ps, out)
	for i := range g {
		if out[i] != g[i] {
			t.Fatal("grad round trip failed")
		}
	}
	zeroGrads(ps)
	if GradNorm2(ps) != 0 {
		t.Fatal("zeroGrads left non-zero gradient")
	}
}

// zeroGrads clears every gradient in ps. Layers write their gradients in
// Backward, so nothing in the package clears them; tests that set gradients
// by hand use this.
func zeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

func TestFlattenLengthMismatchPanics(t *testing.T) {
	d := bind(nil, NewDense("d", 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FlattenParams(d.Params(), tensor.NewVector(1))
}

// Property: SetParams(FlattenParams(x)) is the identity for any parameter
// content.
func TestQuickParamRoundTrip(t *testing.T) {
	seq := bind(nil, NewSequential(
		NewDense("a", 5, 4),
		NewLayerNorm("ln", 4),
		NewDense("b", 4, 3),
	))
	ps := seq.Params()
	n := ParamCount(ps)
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		v := tensor.NewVector(n)
		r.NormVector(v, 0, 3)
		SetParams(ps, v)
		out := tensor.NewVector(n)
		FlattenParams(ps, out)
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialParamOrderStable(t *testing.T) {
	build := func() *Sequential {
		return bind(tensor.NewRNG(5), NewSequential(NewDense("a", 3, 3), NewDense("b", 3, 2)))
	}
	p1, p2 := build().Params(), build().Params()
	if len(p1) != len(p2) {
		t.Fatal("param count differs across identical builds")
	}
	for i := range p1 {
		if p1[i].Name != p2[i].Name {
			t.Fatalf("param order unstable: %s vs %s", p1[i].Name, p2[i].Name)
		}
		for j := range p1[i].Data {
			if p1[i].Data[j] != p2[i].Data[j] {
				t.Fatal("identical seeds must give identical init")
			}
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	d := bind(tensor.NewRNG(6), NewDropout(0.5))
	x := randInput(7, 4, 100)
	yEval := d.Forward(x, false)
	if !yEval.Equal(x) {
		t.Fatal("eval-mode dropout must be identity")
	}
	yTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 100 || zeros > 300 {
		t.Fatalf("dropout p=0.5 zeroed %d of 400", zeros)
	}
	// Survivors must be scaled by 2.
	for i, v := range yTrain.Data {
		if v != 0 && math.Abs(v-2*x.Data[i]) > 1e-12 {
			t.Fatal("inverted dropout scaling wrong")
		}
	}
	// Backward mask must match forward mask.
	g := tensor.NewMatrix(4, 100)
	g.Data.Fill(1)
	dx := d.Backward(g)
	for i, v := range yTrain.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestDropoutInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	NewDropout(1.0)
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits: loss = log(C), gradient rows sum to ~0.
	logits := tensor.NewMatrix(2, 4)
	var loss SoftmaxCrossEntropy
	l, correct, grad := loss.Loss(logits, []int{1, 2})
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss: got %v want %v", l, math.Log(4))
	}
	_ = correct
	for i := 0; i < grad.Rows; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d must sum to 0, got %v", i, s)
		}
	}
}

func TestEvalLossMatchesLoss(t *testing.T) {
	logits := randInput(8, 6, 5)
	labels := []int{0, 1, 2, 3, 4, 0}
	var lossFn SoftmaxCrossEntropy
	l1, c1, _ := lossFn.Loss(logits, labels)
	l2, c2 := lossFn.EvalLoss(logits, labels)
	if math.Abs(l1-l2) > 1e-12 || c1 != c2 {
		t.Fatalf("Loss (%v, %d) != EvalLoss (%v, %d)", l1, c1, l2, c2)
	}
}

func TestTopKCorrect(t *testing.T) {
	logits := tensor.FromRows([]tensor.Vector{
		{5, 4, 3, 2, 1, 0}, // label 2 is 3rd-best
		{0, 1, 2, 3, 4, 5}, // label 0 is worst
	})
	if got := TopKCorrect(logits, []int{2, 0}, 1); got != 0 {
		t.Fatalf("top-1: got %d", got)
	}
	if got := TopKCorrect(logits, []int{2, 0}, 3); got != 1 {
		t.Fatalf("top-3: got %d", got)
	}
	if got := TopKCorrect(logits, []int{2, 0}, 6); got != 2 {
		t.Fatalf("top-6: got %d", got)
	}
	if got := TopKCorrect(logits, []int{0, 5}, 1); got != 2 {
		t.Fatalf("top-1 exact: got %d", got)
	}
}

func TestLossPanicsOnBadLabels(t *testing.T) {
	var lossFn SoftmaxCrossEntropy
	logits := tensor.NewMatrix(1, 3)
	for _, labels := range [][]int{{3}, {-1}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for labels %v", labels)
				}
			}()
			lossFn.Loss(logits, labels)
		}()
	}
}

// TestMaxPoolNaNAndInfWindows: a window the old -Inf/-1 sentinel could not
// beat (all NaN, all -Inf) must still name one of its own elements as the
// winner — Backward routes the gradient through that index — and a NaN in
// the window's first position must come out as NaN, so a diverged run
// reports a NaN loss instead of crashing or hiding it.
func TestMaxPoolNaNAndInfWindows(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	// One 4×4 channel: four 2×2 windows, row-major.
	x := tensor.FromRows([]tensor.Vector{{
		nan, nan, nan, 3,
		nan, nan, 2, 1,
		ninf, ninf, 5, 7,
		ninf, ninf, 7, 6,
	}})
	pool := NewMaxPool2D(1, 4, 4)
	y := pool.Forward(x, true)
	dx := pool.Backward(tensor.FromRows([]tensor.Vector{{1, 2, 3, 4}}))
	if !math.IsNaN(y.Data[0]) || !math.IsNaN(y.Data[1]) || y.Data[2] != ninf || y.Data[3] != 7 {
		t.Fatalf("Forward: got %v, want [NaN NaN -Inf 7]", y.Data)
	}
	want := tensor.Vector{
		1, 0, 2, 0,
		0, 0, 0, 0,
		3, 0, 0, 4, // ties keep the first maximum of the scan
		0, 0, 0, 0,
	}
	for i, g := range dx.Data {
		if g != want[i] {
			t.Fatalf("Backward: got %v, want %v", dx.Data, want)
		}
	}
}
