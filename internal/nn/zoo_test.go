package nn

import (
	"math"
	"testing"

	"selsync/internal/tensor"
)

// trainSteps runs plain SGD on one fixed batch and returns first/last loss.
func trainSteps(net *FeedForwardNet, x *tensor.Matrix, labels []int, steps int, lr float64) (first, last float64) {
	for s := 0; s < steps; s++ {
		loss, _ := net.ComputeGradients(x, labels)
		if s == 0 {
			first = loss
		}
		last = loss
		for _, p := range net.Params() {
			p.Data.Axpy(-lr, p.Grad)
		}
	}
	return first, last
}

func classifierBatch(seed uint64, n, classes int) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.NewMatrix(n, ImgFeatures)
	rng.NormVector(x.Data, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func lmBatch(seed uint64, n int) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.NewMatrix(n, LMSeqLen)
	labels := make([]int, n*LMSeqLen)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(LMVocab))
	}
	for i := range labels {
		labels[i] = rng.Intn(LMVocab)
	}
	return x, labels
}

func TestZooFactoriesDeterministic(t *testing.T) {
	for name, f := range Zoo() {
		a, b := f.New(42), f.New(42)
		pa, pb := a.Params(), b.Params()
		if len(pa) != len(pb) {
			t.Fatalf("%s: param list lengths differ", name)
		}
		for i := range pa {
			for j := range pa[i].Data {
				if pa[i].Data[j] != pb[i].Data[j] {
					t.Fatalf("%s: same seed produced different init (%s)", name, pa[i].Name)
				}
			}
		}
		c := f.New(43)
		flat1 := tensor.NewVector(ParamCount(pa))
		flat2 := tensor.NewVector(ParamCount(c.Params()))
		FlattenParams(pa, flat1)
		FlattenParams(c.Params(), flat2)
		same := true
		for i := range flat1 {
			if flat1[i] != flat2[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical init", name)
		}
	}
}

func TestZooSpecsSane(t *testing.T) {
	for name, f := range Zoo() {
		s := f.Spec
		if s.Classes < 2 || s.WireBytes <= 0 || s.FlopsPerSample <= 0 {
			t.Fatalf("%s: bad spec %+v", name, s)
		}
		if s.TopK < 1 {
			t.Fatalf("%s: TopK must be >= 1", name)
		}
		if name == "transformer" {
			if s.SeqLen != LMSeqLen || !s.Perplexity {
				t.Fatalf("transformer spec wrong: %+v", s)
			}
			if s.RowsPerExample() != LMSeqLen {
				t.Fatal("LM RowsPerExample must equal SeqLen")
			}
		} else if s.RowsPerExample() != 1 {
			t.Fatalf("%s: classifier RowsPerExample must be 1", name)
		}
	}
}

func TestClassifiersLearnFixedBatch(t *testing.T) {
	for _, name := range []string{"resnet", "vgg", "alexnet"} {
		f := Zoo()[name]
		net := f.New(7)
		x, labels := classifierBatch(11, 16, f.Spec.Classes)
		first, last := trainSteps(net, x, labels, 30, 0.05)
		if !(last < first*0.8) {
			t.Fatalf("%s: loss did not drop on fixed batch: %v -> %v", name, first, last)
		}
		if !flatParamsFinite(net) {
			t.Fatalf("%s: parameters diverged", name)
		}
	}
}

func TestTransformerLearnsFixedBatch(t *testing.T) {
	f := Zoo()["transformer"]
	net := f.New(7)
	x, labels := lmBatch(13, 8)
	first, last := trainSteps(net, x, labels, 30, 0.1)
	if !(last < first*0.9) {
		t.Fatalf("transformer: loss did not drop: %v -> %v", first, last)
	}
	if !flatParamsFinite(net) {
		t.Fatal("transformer: parameters diverged")
	}
}

func flatParamsFinite(net *FeedForwardNet) bool {
	flat := tensor.NewVector(ParamCount(net.Params()))
	FlattenParams(net.Params(), flat)
	return flat.AllFinite()
}

func TestComputeGradientsZeroesFirst(t *testing.T) {
	f := Zoo()["vgg"]
	net := f.New(3)
	x, labels := classifierBatch(5, 4, f.Spec.Classes)
	net.ComputeGradients(x, labels)
	g1 := tensor.NewVector(ParamCount(net.Params()))
	FlattenGrads(net.Params(), g1)
	net.ComputeGradients(x, labels) // same batch: same gradient, not doubled
	g2 := tensor.NewVector(len(g1))
	FlattenGrads(net.Params(), g2)
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-12 {
			t.Fatal("ComputeGradients must write the batch's gradient, not add to the last one")
		}
	}
}

func TestEvaluateUsesTopK(t *testing.T) {
	f := Zoo()["alexnet"] // top-5 metric
	net := f.New(9)
	x, labels := classifierBatch(15, 32, f.Spec.Classes)
	_, top5 := net.Evaluate(x, labels)
	logits := net.Seq.Forward(x, false)
	var lossFn SoftmaxCrossEntropy
	_, top1 := lossFn.EvalLoss(logits, labels)
	if top5 < top1 {
		t.Fatalf("top-5 correct (%d) cannot be below top-1 (%d)", top5, top1)
	}
}

func TestZooNamesSorted(t *testing.T) {
	names := ZooNames()
	if len(names) != 4 {
		t.Fatalf("zoo should have 4 entries, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestEmbeddingRejectsOutOfRangeIDs(t *testing.T) {
	emb := bind(tensor.NewRNG(31), NewEmbedding("e", 4, 2, 3))
	x := tensor.FromRows([]tensor.Vector{{0, 9}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range token")
		}
	}()
	emb.Forward(x, false)
}

func TestResidualShapePanic(t *testing.T) {
	r := bind(tensor.NewRNG(32), NewResidual(NewDense("d", 4, 3))) // width-changing inner layer
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width-changing residual")
		}
	}()
	r.Forward(tensor.NewMatrix(2, 4), false)
}

// TestFirstLayerInputGradSkipLeavesParamGradsAlone: NewFeedForwardNet tells
// a network's first layer to leave out the gradient with respect to the
// data batch. That gradient feeds nothing, so every parameter gradient —
// and the loss — must come out bit for bit as it does with the skip undone,
// on all four zoo models and on a Dense-first net, over two steps (layer
// buffers are reused from the second on).
func TestFirstLayerInputGradSkipLeavesParamGradsAlone(t *testing.T) {
	factories := Zoo()
	mlp := ModelSpec{Name: "MLP", Classes: 10, TopK: 1}
	factories["mlp"] = Factory{Spec: mlp, Build: func(rng *tensor.RNG) *FeedForwardNet {
		return build(mlp, rng, NewDense("fc1", ImgFeatures, 24), NewReLU(), NewDense("fc2", 24, 10))
	}}
	skipping := 0
	for name, f := range factories {
		skip, full := f.New(5), f.New(5)
		switch first := full.Seq.Layers[0].(type) {
		case *Conv2D:
			first.noDX = false
		case *Dense:
			first.noDX = false
		}
		if _, ok := skip.Seq.Layers[0].(inputGradSkipper); ok {
			skipping++
			x, _ := StepBenchBatch(f, tensor.NewRNG(6))
			skip.Seq.Forward(x, true)
			full.Seq.Forward(x, true)
			seed := tensor.NewMatrix(x.Rows, f.Spec.Classes)
			if dx := skip.Seq.Backward(seed); dx != nil {
				t.Errorf("%s: first layer still returns an input gradient", name)
			}
			if dx := full.Seq.Backward(seed); dx == nil || dx.Rows != x.Rows || dx.Cols != x.Cols {
				t.Errorf("%s: with the skip undone the first layer returns %v", name, dx)
			}
		}
		for step := 0; step < 2; step++ {
			x, labels := StepBenchBatch(f, tensor.NewRNG(7+uint64(step)))
			lossSkip, _ := skip.ComputeGradients(x, labels)
			lossFull, _ := full.ComputeGradients(x, labels)
			if math.Float64bits(lossSkip) != math.Float64bits(lossFull) {
				t.Errorf("%s step %d: loss %v with the skip, %v without", name, step, lossSkip, lossFull)
			}
			gs, gf := skip.Arena().Grad, full.Arena().Grad
			for i := range gs {
				if math.Float64bits(gs[i]) != math.Float64bits(gf[i]) {
					t.Fatalf("%s step %d: gradient %d is %v with the skip, %v without", name, step, i, gs[i], gf[i])
				}
			}
		}
	}
	if skipping != 4 { // resnet, vgg, alexnet (Conv2D first) and the MLP
		t.Fatalf("%d of the networks skip their first layer's input gradient, want 4", skipping)
	}
}
