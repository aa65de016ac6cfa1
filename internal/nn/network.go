package nn

import (
	"fmt"

	"selsync/internal/tensor"
)

// ModelSpec describes a zoo model for the rest of the system: the metric it
// reports, and the paper-scale cost constants the cluster simulator uses to
// price its compute and communication. WireBytes and FlopsPerSample are
// deliberately decoupled from the actual (small) parameter count — they are
// set to the published sizes of the paper's models so that the simulated
// compute/communication ratios match the paper's testbed (see DESIGN.md,
// "Reproduction constraints and substitutions").
type ModelSpec struct {
	Name           string
	Classes        int     // output classes (vocabulary size for the LM)
	SeqLen         int     // sequence length; 0 for classifiers
	TopK           int     // accuracy metric: 1 = top-1, 5 = top-5
	Perplexity     bool    // report exp(loss) instead of accuracy
	WireBytes      float64 // simulated size of one full model update on the network
	FlopsPerSample float64 // simulated forward+backward cost per training sample
	MemBytesBase   float64 // simulated resident footprint independent of batch size
	MemBytesPerEx  float64 // simulated activation footprint per batched sample
}

// RowsPerExample returns how many loss rows one dataset example produces:
// 1 for classifiers, SeqLen for the language model (one prediction per
// position).
func (s ModelSpec) RowsPerExample() int {
	if s.SeqLen > 0 {
		return s.SeqLen
	}
	return 1
}

// Network is the contract the distributed-training algorithms program
// against: compute gradients on a batch, read/write flat parameters, and
// evaluate. Implementations must leave gradients in Params() after
// ComputeGradients so callers can flatten them for aggregation.
type Network interface {
	// Params returns the model parameters in a stable order.
	Params() []*Param
	// ComputeGradients runs forward+backward on the batch — each layer
	// writes its gradient, so the arena holds this batch's gradient alone —
	// and returns the mean loss and the number of correctly predicted rows
	// (top-1).
	ComputeGradients(x *tensor.Matrix, labels []int) (loss float64, correct int)
	// Evaluate runs a forward pass only and returns mean loss and correct
	// predictions under the model's configured metric (TopK).
	Evaluate(x *tensor.Matrix, labels []int) (loss float64, correct int)
	// EvaluateRows is Evaluate before its fold: row i's loss lands in
	// rowLoss[i], and 1 or 0 in rowHit[i] as the row is correct under the
	// configured metric or not. Neither depends on which other rows share
	// the batch, so a test set may be cut anywhere and evaluated by several
	// replicas; FoldRows over any run of rows is Evaluate's result for them.
	EvaluateRows(x *tensor.Matrix, labels []int, rowLoss, rowHit tensor.Vector)
	// Spec returns the model's descriptor.
	Spec() ModelSpec
}

// GradScheduler is implemented by networks that can report backward-pass
// progress: SetGradHook installs a callback invoked after each layer's
// backward step with the lowest arena offset whose gradient is final —
// once the hook reports low, every gradient in [low, Dim) is written and
// no later layer touches it, so it may be read (and the parameters over it
// updated) while the backward pass goes on.
//
// The training runner's per-block work is the consumer: on a step whose
// policy lets it, each worker takes a block's Δ(g_i) norm and applies its
// own optimizer update to the block as soon as the hook releases it, while
// the block is still in cache.
type GradScheduler interface {
	SetGradHook(func(low int))
}

// FeedForwardNet is the concrete Network used by every zoo model: a
// Sequential producing one logits row per prediction, trained with softmax
// cross-entropy. For the language model the Sequential itself reshapes so
// that its final output has batch·SeqLen rows.
type FeedForwardNet struct {
	Seq  *Sequential
	spec ModelSpec

	loss    SoftmaxCrossEntropy
	params  []*Param
	arena   *Arena
	gradBuf *tensor.Matrix // reused loss-gradient buffer
	rowBuf  tensor.Vector  // Evaluate's per-row results: losses, then hits

	// streams are the RNG streams layers own (Dropout masks), in layer
	// order — replica state that lives outside the arena.
	streams []*tensor.RNG

	// layerOffs[i] is the arena offset of layer i's first parameter;
	// gradHook, when set, fires after each layer's backward with the
	// layer's offset (see GradScheduler).
	layerOffs []int
	gradHook  func(low int)
}

// SharedParamError is NewFeedForwardNet's panic value for a parameter that
// appears twice in the network: its layers write their gradients rather
// than add to them, so a shared parameter would keep only one use's.
type SharedParamError struct{ Name string }

func (e *SharedParamError) Error() string {
	return fmt.Sprintf("nn: parameter %q appears more than once in the network; shared parameters are not supported", e.Name)
}

// NewFeedForwardNet wraps a Sequential with its spec, caching the parameter
// list and binding it onto one zeroed Arena (NewArena), so every consumer
// (optimizers, the cluster exchange path) sees the contiguous layout from
// the first step. The network's initial state is Init's to draw. A
// parameter listed twice panics with a *SharedParamError.
func NewFeedForwardNet(seq *Sequential, spec ModelSpec) *FeedForwardNet {
	params := seq.Params()
	seen := make(map[*Param]bool, len(params))
	for _, p := range params {
		if seen[p] {
			panic(&SharedParamError{Name: p.Name})
		}
		seen[p] = true
	}
	f := &FeedForwardNet{Seq: seq, spec: spec, params: params, arena: NewArena(params)}
	if len(seq.Layers) > 0 {
		if first, ok := seq.Layers[0].(inputGradSkipper); ok {
			first.skipInputGrad()
		}
	}
	walkLayers(seq, func(l Layer) {
		if d, ok := l.(*Dropout); ok {
			f.streams = append(f.streams, d.rng)
		}
	})
	f.layerOffs = make([]int, len(seq.Layers))
	off := 0
	for i, l := range seq.Layers {
		f.layerOffs[i] = off
		off += ParamCount(l.Params())
	}
	return f
}

// walkLayers calls fn on l and then on every layer nested in it, in layer
// order.
func walkLayers(l Layer, fn func(Layer)) {
	fn(l)
	switch l := l.(type) {
	case *Sequential:
		for _, inner := range l.Layers {
			walkLayers(inner, fn)
		}
	case *Residual:
		walkLayers(l.Inner, fn)
	case *Positionwise:
		walkLayers(l.Inner, fn)
	}
}

// initializer is implemented by layers with initial state of their own:
// drawn weights, LayerNorm's unit gain, Dropout's stream.
type initializer interface{ init(rng *tensor.RNG) }

// Init writes the initial state of layers and the layers nested in them
// into their bound Params, drawing from rng in the order given and, within
// a layer, in layer order. A nil rng writes nothing: the state stays zero
// and the streams blank, for the caller to fill by copy or restore.
func Init(rng *tensor.RNG, layers ...Layer) {
	if rng == nil {
		return
	}
	for _, l := range layers {
		walkLayers(l, func(l Layer) {
			if in, ok := l.(initializer); ok {
				in.init(rng)
			}
		})
	}
}

// LayerRNG returns the state words of the RNG streams the layers own, in
// layer order (nil for a model without stateful layers). With the arena it
// is the whole of a replica's state: copying both makes a bit-identical
// replica, and a checkpoint must carry both to resume bit-identically.
func (f *FeedForwardNet) LayerRNG() []uint64 {
	if len(f.streams) == 0 {
		return nil
	}
	states := make([]uint64, len(f.streams))
	for i, r := range f.streams {
		states[i] = r.State()
	}
	return states
}

// SetLayerRNG overwrites the layer-owned streams with states captured by
// LayerRNG on an identically built network.
func (f *FeedForwardNet) SetLayerRNG(states []uint64) error {
	if len(states) != len(f.streams) {
		return fmt.Errorf("nn: %s owns %d layer RNG streams, got %d states", f.spec.Name, len(f.streams), len(states))
	}
	for i, r := range f.streams {
		r.SetState(states[i])
	}
	return nil
}

// SetGradHook implements GradScheduler. A nil hook restores the plain
// backward path. The hook runs on the goroutine calling ComputeGradients.
func (f *FeedForwardNet) SetGradHook(h func(low int)) { f.gradHook = h }

// Params returns the cached parameter list.
func (f *FeedForwardNet) Params() []*Param { return f.params }

// Arena returns the contiguous parameter/gradient arena every network
// built by this package keeps its parameters in.
func (f *FeedForwardNet) Arena() *Arena { return f.arena }

// Spec returns the model descriptor.
func (f *FeedForwardNet) Spec() ModelSpec { return f.spec }

// ComputeGradients runs forward and backward in training mode. Every layer
// writes its own gradient window, so nothing is cleared first. With a grad
// hook installed the backward chain runs layer by layer here — the same
// calls in the same order as Sequential.Backward, so the arithmetic is
// bit-identical — firing the hook after each layer with its arena offset:
// no layer's backward ever touches another layer's gradients or parameters,
// so once layer i finishes, everything at offset layerOffs[i] and above is
// final.
func (f *FeedForwardNet) ComputeGradients(x *tensor.Matrix, labels []int) (float64, int) {
	logits := f.Seq.Forward(x, true)
	f.gradBuf = tensor.EnsureMatrix(f.gradBuf, logits.Rows, logits.Cols)
	loss, correct := f.loss.LossInto(f.gradBuf, logits, labels)
	if f.gradHook == nil {
		f.Seq.Backward(f.gradBuf)
	} else {
		grad := f.gradBuf
		for i := len(f.Seq.Layers) - 1; i >= 0; i-- {
			grad = f.Seq.Layers[i].Backward(grad)
			f.gradHook(f.layerOffs[i])
		}
	}
	return loss, correct
}

// Evaluate runs a forward pass in eval mode; correctness uses the spec's
// TopK metric. It is the fold of EvaluateRows.
func (f *FeedForwardNet) Evaluate(x *tensor.Matrix, labels []int) (float64, int) {
	n := len(labels)
	f.rowBuf = tensor.EnsureVector(f.rowBuf, 2*n)
	rowLoss, rowHit := f.rowBuf[:n], f.rowBuf[n:]
	f.EvaluateRows(x, labels, rowLoss, rowHit)
	return FoldRows(rowLoss, rowHit)
}

// EvaluateRows implements Network.
func (f *FeedForwardNet) EvaluateRows(x *tensor.Matrix, labels []int, rowLoss, rowHit tensor.Vector) {
	f.loss.EvalRows(f.Seq.Forward(x, false), labels, f.spec.TopK, rowLoss, rowHit)
}

// FlattenPositions reshapes (n × T·V) activations into (n·T × V) rows so a
// per-position head feeds the row-wise loss directly. Pure view; no copies
// (the reshape headers are owned by the layer and reused).
type FlattenPositions struct {
	T int

	yView, dxView tensor.Matrix
}

// NewFlattenPositions returns the reshaping layer.
func NewFlattenPositions(seqLen int) *FlattenPositions { return &FlattenPositions{T: seqLen} }

// Forward reshapes to one row per position.
func (f *FlattenPositions) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return f.yView.View(x.Data, x.Rows*f.T, x.Cols/f.T)
}

// Backward restores the batch-major shape.
func (f *FlattenPositions) Backward(grad *tensor.Matrix) *tensor.Matrix {
	return f.dxView.View(grad.Data, grad.Rows/f.T, grad.Cols*f.T)
}

// Params returns nil; reshaping has no parameters.
func (f *FlattenPositions) Params() []*Param { return nil }
