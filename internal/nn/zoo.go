package nn

import (
	"fmt"
	"sort"

	"selsync/internal/tensor"
)

// The model zoo mirrors the four architectures of the paper's evaluation
// (§IV-A) at laptop scale. Geometry constants are shared with the dataset
// generators in internal/data.
const (
	ImgChannels = 3
	ImgSize     = 8 // height and width of synthetic images
	ImgFeatures = ImgChannels * ImgSize * ImgSize

	LMSeqLen = 16
	LMVocab  = 64
	LMDim    = 32
	LMHeads  = 2
)

// Factory builds replicas of one zoo model. Initial state is drawn once and
// copied, exactly like workers pulling the same initial state from the
// parameter server: a cluster draws its first hosted replica with
// New(seed), builds the others with Build(nil) and fills them from the
// first (arena copy plus SetLayerRNG). Networks whose state is about to be
// overwritten anyway — the evaluation replica, a resumed or re-materialized
// worker — are Build(nil) too and never draw.
type Factory struct {
	Spec ModelSpec
	// Build constructs the network onto one arena allocation (its layers
	// declare shapes only) and then, with a non-nil rng, draws its initial
	// state with Init in a fixed order. With a nil rng it draws nothing:
	// the arena stays zero and the layer streams blank, for the caller to
	// fill by copy or restore.
	Build func(rng *tensor.RNG) *FeedForwardNet
}

// New builds a replica with the initial state drawn from seed; two calls
// with the same seed return bit-identical networks.
func (f Factory) New(seed uint64) *FeedForwardNet { return f.Build(tensor.NewRNG(seed)) }

// build binds layers onto one network and draws their initial state from
// rng in layer order.
func build(spec ModelSpec, rng *tensor.RNG, layers ...Layer) *FeedForwardNet {
	net := NewFeedForwardNet(NewSequential(layers...), spec)
	Init(rng, net.Seq)
	return net
}

// ResNetLite is the deep residual analogue of ResNet101: a convolutional
// stem followed by blocks residual MLP blocks (pre-norm, two Dense layers
// each) and a linear head. It is the deepest zoo model, and the skip
// connections give it the robustness-to-local-training the paper observes
// for ResNet101.
func ResNetLite(classes, blocks int) Factory {
	spec := ModelSpec{
		Name:    fmt.Sprintf("ResNetLite(c=%d)", classes),
		Classes: classes, TopK: 1,
		WireBytes:      170e6, // ResNet101 fp32 ≈ 170 MB
		FlopsPerSample: 7.8e9,
		MemBytesBase:   1.5e9, MemBytesPerEx: 9.5e6,
	}
	return Factory{Spec: spec, Build: func(rng *tensor.RNG) *FeedForwardNet {
		const width = 128 // 8 filters × 4×4 after pooling
		layers := []Layer{
			NewConv2D("stem", ImgChannels, ImgSize, ImgSize, 8, 3, 1),
			NewReLU(),
			NewMaxPool2D(8, ImgSize, ImgSize),
		}
		for b := 0; b < blocks; b++ {
			name := fmt.Sprintf("block%d", b)
			layers = append(layers, NewResidual(NewSequential(
				NewLayerNorm(name+".ln", width),
				NewDense(name+".fc1", width, width),
				NewReLU(),
				NewDense(name+".fc2", width, width),
			)))
		}
		layers = append(layers,
			NewLayerNorm("head.ln", width),
			NewDense("head.fc", width, classes),
		)
		return build(spec, rng, layers...)
	}}
}

// VGGLite is the plain convolutional analogue of VGG11: two conv+pool
// stages and a two-layer classifier, no skip connections. Its simpler
// inductive bias makes it the model that suffers most from divergence under
// semi-synchronous training, matching the paper's VGG11-on-CIFAR100
// observations.
func VGGLite(classes int) Factory {
	spec := ModelSpec{
		Name:    fmt.Sprintf("VGGLite(c=%d)", classes),
		Classes: classes, TopK: 1,
		WireBytes:      507e6, // VGG11 fp32 ≈ 507 MB (paper §I)
		FlopsPerSample: 4.6e9,
		MemBytesBase:   2.0e9, MemBytesPerEx: 7.5e6,
	}
	return Factory{Spec: spec, Build: func(rng *tensor.RNG) *FeedForwardNet {
		// A single pooling stage keeps 16×4×4 = 256 features: the
		// 100-class task needs the width (two pools squeeze it to 64
		// dims, which cannot separate 100 classes).
		body := []Layer{
			NewConv2D("conv1", ImgChannels, ImgSize, ImgSize, 8, 3, 1),
			NewReLU(),
			NewMaxPool2D(8, ImgSize, ImgSize), // → 8×4×4
			NewConv2D("conv2", 8, ImgSize/2, ImgSize/2, 16, 3, 1),
			NewReLU(), // → 16×4×4 = 256
			NewDense("fc1", 256, 128),
			NewReLU(),
		}
		head := NewDense("fc2", 128, classes)
		net := NewFeedForwardNet(NewSequential(append(body, head)...), spec)
		if rng != nil {
			// The head is drawn first, and scaled to start near the
			// uniform-prediction loss.
			Init(rng, head)
			head.W.Data.Scale(0.1)
			Init(rng, body...)
		}
		return net
	}}
}

// AlexNetLite is the wide, shallow convolutional analogue of AlexNet: one
// large-kernel conv stage and a dropout-regularized classifier, reporting
// top-5 accuracy like the paper's ImageNet workload.
func AlexNetLite(classes int) Factory {
	spec := ModelSpec{
		Name:    fmt.Sprintf("AlexNetLite(c=%d)", classes),
		Classes: classes, TopK: 5,
		WireBytes:      233e6, // AlexNet fp32 ≈ 233 MB
		FlopsPerSample: 2.1e9,
		MemBytesBase:   1.2e9, MemBytesPerEx: 6.0e6,
	}
	return Factory{Spec: spec, Build: func(rng *tensor.RNG) *FeedForwardNet {
		return build(spec, rng,
			NewConv2D("conv1", ImgChannels, ImgSize, ImgSize, 12, 5, 2),
			NewReLU(),
			NewMaxPool2D(12, ImgSize, ImgSize), // → 12×4×4 = 192
			NewDense("fc1", 192, 128),
			NewReLU(),
			NewDropout(0.2),
			NewDense("fc2", 128, classes),
		)
	}}
}

// TransformerLite is the encoder language model analogue of the paper's
// Transformer-on-WikiText-103 workload: token + sinusoidal position
// embeddings, two pre-norm encoder blocks (multi-head causal self-attention
// and a GELU feed-forward), and a per-position vocabulary head. The
// training metric is perplexity = exp(loss).
func TransformerLite() Factory {
	spec := ModelSpec{
		Name:    "TransformerLite",
		Classes: LMVocab, SeqLen: LMSeqLen, TopK: 1, Perplexity: true,
		WireBytes:      214e6, // 2-layer encoder + 267K-token embedding ≈ 214 MB
		FlopsPerSample: 3.4e9,
		MemBytesBase:   2.6e9, MemBytesPerEx: 160e6,
	}
	return Factory{Spec: spec, Build: func(rng *tensor.RNG) *FeedForwardNet {
		layers := []Layer{
			NewEmbedding("embed", LMVocab, LMSeqLen, LMDim),
			NewPositionalEncoding(LMSeqLen, LMDim),
		}
		for b := 0; b < 2; b++ {
			name := fmt.Sprintf("enc%d", b)
			layers = append(layers,
				NewResidual(NewSequential(
					NewPositionwise(LMSeqLen, NewLayerNorm(name+".ln1", LMDim)),
					NewMultiHeadAttention(name+".attn", LMSeqLen, LMDim, LMHeads, true),
				)),
				NewResidual(NewSequential(
					NewPositionwise(LMSeqLen, NewLayerNorm(name+".ln2", LMDim)),
					NewPositionwise(LMSeqLen, NewDense(name+".ff1", LMDim, 2*LMDim)),
					NewGELU(),
					NewPositionwise(LMSeqLen, NewDense(name+".ff2", 2*LMDim, LMDim)),
				)),
				NewDropout(0.2),
			)
		}
		layers = append(layers,
			NewPositionwise(LMSeqLen, NewLayerNorm("head.ln", LMDim)),
			NewPositionwise(LMSeqLen, NewDense("head.fc", LMDim, LMVocab)),
			NewFlattenPositions(LMSeqLen),
		)
		return build(spec, rng, layers...)
	}}
}

// Zoo returns the four paper workloads keyed by the short names the CLI
// tools accept: resnet (10-class), vgg (100-class), alexnet (20-class,
// top-5), transformer (language model).
func Zoo() map[string]Factory {
	return map[string]Factory{
		"resnet":      ResNetLite(10, 6),
		"vgg":         VGGLite(100),
		"alexnet":     AlexNetLite(20),
		"transformer": TransformerLite(),
	}
}

// ZooNames returns the zoo keys in sorted order for deterministic
// iteration in reports.
func ZooNames() []string {
	names := make([]string, 0, 4)
	for k := range Zoo() {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
