package data

import (
	"fmt"

	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// ImageGen generates class-conditional Gaussian "images": class c draws
// from N(μ_c, σ²I) with the class means themselves drawn once from
// N(0, sep²I). The separation-to-noise ratio controls task difficulty, so
// the 100-class CIFAR-100 stand-in is genuinely harder than the 10-class
// one — the property the paper's VGG11-vs-ResNet101 comparisons rely on.
// Train and test sets drawn from one generator share class means, giving a
// real generalization gap.
type ImageGen struct {
	Classes int
	Sep     float64
	Noise   float64

	means []tensor.Vector
	rng   *tensor.RNG
	bytes float64
}

// NewImageGen builds a generator with its own deterministic RNG.
func NewImageGen(classes int, sep, noise float64, bytesPerExample float64, seed uint64) *ImageGen {
	g := &ImageGen{
		Classes: classes, Sep: sep, Noise: noise,
		rng: tensor.NewRNG(seed), bytes: bytesPerExample,
	}
	means := tensor.NewMatrix(classes, nn.ImgFeatures)
	g.rng.NormRows(means, nil, nil, 0, sep)
	g.means = make([]tensor.Vector, classes)
	for c := range g.means {
		g.means[c] = means.Row(c)
	}
	return g
}

// Dataset draws n examples, balanced across classes and shuffled: the i-th
// example drawn has class i % Classes and lands in row order[i] of a random
// permutation order.
func (g *ImageGen) Dataset(name string, n int) *Dataset {
	d := &Dataset{
		Name:    name,
		X:       tensor.NewMatrix(n, nn.ImgFeatures),
		Y:       make([][]int, n),
		Classes: g.Classes, BytesPerExample: g.bytes,
	}
	order := g.rng.Perm(n)
	labels := make([]int, n)
	for i, row := range order {
		labels[row] = i % g.Classes
	}
	for i := range d.Y {
		d.Y[i] = labels[i : i+1 : i+1]
	}
	g.rng.NormRows(d.X, order, g.means, 0, g.Noise)
	return d
}

// TextGen generates token streams from a sparse first-order Markov chain:
// each token has Branching plausible successors with a dominant one, so a
// language model that learns the chain reaches a perplexity far below the
// vocabulary size while minibatch gradients stay noisy.
type TextGen struct {
	Vocab     int
	Branching int

	succ    [][]int     // successor token ids per state
	weights [][]float64 // cumulative probabilities per state
	rng     *tensor.RNG
	bytes   float64
}

// NewTextGen builds the chain. Branching is clamped to [2, vocab].
func NewTextGen(vocab, branching int, bytesPerExample float64, seed uint64) *TextGen {
	if branching < 2 {
		branching = 2
	}
	if branching > vocab {
		branching = vocab
	}
	g := &TextGen{Vocab: vocab, Branching: branching, rng: tensor.NewRNG(seed), bytes: bytesPerExample}
	g.succ = make([][]int, vocab)
	g.weights = make([][]float64, vocab)
	for s := 0; s < vocab; s++ {
		g.succ[s] = g.rng.Sample(vocab, branching)
		// Dominant first successor (70%), remainder split evenly: a
		// learnable but non-deterministic chain.
		w := make([]float64, branching)
		w[0] = 0.7
		rest := 0.3 / float64(branching-1)
		cum := w[0]
		for i := 1; i < branching; i++ {
			cum += rest
			w[i] = cum
		}
		w[branching-1] = 1.0
		g.weights[s] = w
	}
	return g
}

func (g *TextGen) next(state int, rng *tensor.RNG) int {
	u := rng.Float64()
	w := g.weights[state]
	for i, cum := range w {
		if u <= cum {
			return g.succ[state][i]
		}
	}
	return g.succ[state][len(w)-1]
}

// Dataset draws nSeqs sequences of length seqLen; labels are the next
// tokens at each position.
func (g *TextGen) Dataset(name string, nSeqs, seqLen int) *Dataset {
	d := &Dataset{
		Name:    name,
		X:       tensor.NewMatrix(nSeqs, seqLen),
		Y:       make([][]int, nSeqs),
		Classes: g.Vocab, SeqLen: seqLen, BytesPerExample: g.bytes,
	}
	for i := 0; i < nSeqs; i++ {
		state := g.rng.Intn(g.Vocab)
		row := d.X.Row(i)
		labels := make([]int, seqLen)
		for t := 0; t < seqLen; t++ {
			row[t] = float64(state)
			state = g.next(state, g.rng)
			labels[t] = state
		}
		d.Y[i] = labels
	}
	return d
}

// Workload couples a train and a test set.
type Workload struct {
	Train, Test *Dataset
}

// WorkloadSpec selects one of the four paper datasets at a configurable
// scale.
type WorkloadSpec struct {
	Kind   string // cifar10like | cifar100like | imagenetlike | wikitextlike
	TrainN int
	TestN  int
	Seed   uint64
}

// NewWorkload builds the requested dataset pair. Defaults (TrainN/TestN of
// zero) pick sizes that keep full experiments tractable on a laptop.
func NewWorkload(spec WorkloadSpec) Workload {
	trainN, testN := spec.TrainN, spec.TestN
	def := func(tr, te int) {
		if trainN == 0 {
			trainN = tr
		}
		if testN == 0 {
			testN = te
		}
	}
	switch spec.Kind {
	case "cifar10like":
		def(4096, 1024)
		g := NewImageGen(10, 1.0, 1.3, 3e3, spec.Seed)
		return Workload{g.Dataset("cifar10like-train", trainN), g.Dataset("cifar10like-test", testN)}
	case "cifar100like":
		def(4096, 1024)
		g := NewImageGen(100, 1.0, 1.3, 3e3, spec.Seed)
		return Workload{g.Dataset("cifar100like-train", trainN), g.Dataset("cifar100like-test", testN)}
	case "imagenetlike":
		def(6144, 1024)
		g := NewImageGen(20, 1.0, 2.4, 5e4, spec.Seed)
		return Workload{g.Dataset("imagenetlike-train", trainN), g.Dataset("imagenetlike-test", testN)}
	case "wikitextlike":
		def(3072, 768)
		g := NewTextGen(nn.LMVocab, 6, 1e2, spec.Seed)
		return Workload{
			g.Dataset("wikitextlike-train", trainN, nn.LMSeqLen),
			g.Dataset("wikitextlike-test", testN, nn.LMSeqLen),
		}
	default:
		panic(fmt.Sprintf("data: unknown workload kind %q", spec.Kind))
	}
}

// WorkloadForModel maps the zoo model names to their paper-matched
// datasets: resnet→CIFAR-10-like, vgg→CIFAR-100-like,
// alexnet→ImageNet-like, transformer→WikiText-like.
func WorkloadForModel(model string, trainN, testN int, seed uint64) Workload {
	kinds := map[string]string{
		"resnet":      "cifar10like",
		"vgg":         "cifar100like",
		"alexnet":     "imagenetlike",
		"transformer": "wikitextlike",
	}
	kind, ok := kinds[model]
	if !ok {
		panic(fmt.Sprintf("data: no workload mapping for model %q", model))
	}
	return NewWorkload(WorkloadSpec{Kind: kind, TrainN: trainN, TestN: testN, Seed: seed})
}
