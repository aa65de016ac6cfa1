// Package data provides the synthetic workloads and the data-distribution
// machinery of the SelSync reproduction: class-conditional Gaussian image
// stand-ins for CIFAR-10/100 and ImageNet-1K, a Markov-chain token stream
// standing in for WikiText-103, the two IID partitioning schemes the paper
// compares (DefDP and SelDP, §III-D), label-skewed non-IID splits (§IV-A)
// and randomized data-injection (§III-E, Eqn. 3).
package data

import (
	"fmt"

	"selsync/internal/tensor"
)

// Dataset is an in-memory supervised dataset. Each example is one row of X;
// classification examples carry one label, language-model examples carry
// SeqLen next-token labels (one per position).
type Dataset struct {
	Name    string
	X       *tensor.Matrix
	Y       [][]int
	Classes int
	SeqLen  int // 0 for classification

	// BytesPerExample is the simulated on-the-wire size of one training
	// example, used to price data-injection traffic (the paper quotes
	// ≈3 KB for CIFAR images and 10–150 KB for ImageNet).
	BytesPerExample float64
}

// N returns the number of examples.
func (d *Dataset) N() int { return d.X.Rows }

// LabelsPerExample returns how many loss rows one example contributes.
func (d *Dataset) LabelsPerExample() int {
	if d.SeqLen > 0 {
		return d.SeqLen
	}
	return 1
}

// Batch materializes the examples at the given indices as a feature matrix
// plus a flattened label slice (row-major: example 0's labels first).
func (d *Dataset) Batch(indices []int) (*tensor.Matrix, []int) {
	return d.BatchInto(nil, nil, indices)
}

// BatchInto is Batch reusing caller-owned buffers: x's backing storage and
// labels' backing array are reused when large enough and reallocated
// otherwise. It returns the (possibly replaced) buffers; evaluation loops
// call it with the previous chunk's buffers so chunked passes over a
// dataset allocate only once.
func (d *Dataset) BatchInto(x *tensor.Matrix, labels []int, indices []int) (*tensor.Matrix, []int) {
	x = tensor.EnsureMatrix(x, len(indices), d.X.Cols)
	if cap(labels) < len(indices)*d.LabelsPerExample() {
		labels = make([]int, 0, len(indices)*d.LabelsPerExample())
	}
	labels = labels[:0]
	for i, idx := range indices {
		if idx < 0 || idx >= d.N() {
			panic(fmt.Sprintf("data: batch index %d out of range [0,%d)", idx, d.N()))
		}
		copy(x.Row(i), d.X.Row(idx))
		labels = append(labels, d.Y[idx]...)
	}
	return x, labels
}

// Label returns the primary label of example idx (the single class for
// classification; the first next-token for LM data). Non-IID splitting
// shards on this value.
func (d *Dataset) Label(idx int) int { return d.Y[idx][0] }

// Subset returns a view-free copy containing only the given examples.
func (d *Dataset) Subset(name string, indices []int) *Dataset {
	x, labels := d.Batch(indices) // every example's labels, in order
	y := make([][]int, len(indices))
	for i, idx := range indices {
		n := len(d.Y[idx])
		y[i], labels = labels[:n:n], labels[n:]
	}
	return &Dataset{
		Name: name, X: x, Y: y,
		Classes: d.Classes, SeqLen: d.SeqLen,
		BytesPerExample: d.BytesPerExample,
	}
}

// Sampler walks an ordered index list in fixed-size mini-batches, wrapping
// at the end. Workers own one Sampler each; the index list encodes the
// partitioning scheme (DefDP chunk, SelDP rotation, or a non-IID shard).
type Sampler struct {
	indices []int
	batch   int
	pos     int
	epochs  int
}

// NewSampler builds a sampler over indices with the given mini-batch size.
// It panics on an empty index list or non-positive batch size.
func NewSampler(indices []int, batchSize int) *Sampler {
	if len(indices) == 0 {
		panic("data: Sampler over empty index list")
	}
	if batchSize <= 0 {
		panic("data: Sampler batch size must be positive")
	}
	return &Sampler{indices: indices, batch: batchSize}
}

// Next returns the next mini-batch of dataset indices, wrapping around the
// index list as needed (so batches at the boundary span the wrap).
func (s *Sampler) Next() []int {
	return s.NextInto(make([]int, 0, s.batch))
}

// NextInto is the allocation-free Next: it fills dst (truncated to length
// zero first) with the next mini-batch and returns it. With cap(dst) ≥ the
// batch size the returned slice is dst's backing array; the training hot
// loop reuses one buffer per worker this way.
func (s *Sampler) NextInto(dst []int) []int {
	dst = dst[:0]
	for i := 0; i < s.batch; i++ {
		dst = append(dst, s.indices[s.pos])
		s.pos++
		if s.pos == len(s.indices) {
			s.pos = 0
			s.epochs++
		}
	}
	return dst
}

// Skip advances the cursor past one mini-batch without materializing the
// indices — how non-hosting ranks keep every worker's batch stream
// current so an elastic re-assignment resumes at the right position.
func (s *Sampler) Skip() {
	s.pos += s.batch
	for s.pos >= len(s.indices) {
		s.pos -= len(s.indices)
		s.epochs++
	}
}

// Epochs returns how many full passes over the index list have completed.
func (s *Sampler) Epochs() int { return s.epochs }

// Cursor returns the sampler's walk position: the next index offset and
// the completed epoch count. Checkpointing captures it so a resumed run
// continues the exact batch stream of an uninterrupted one.
func (s *Sampler) Cursor() (pos, epochs int) { return s.pos, s.epochs }

// SetCursor restores a walk position previously returned by Cursor.
func (s *Sampler) SetCursor(pos, epochs int) error {
	if pos < 0 || pos >= len(s.indices) {
		return fmt.Errorf("data: sampler cursor %d out of range [0,%d)", pos, len(s.indices))
	}
	if epochs < 0 {
		return fmt.Errorf("data: sampler epoch count %d must be non-negative", epochs)
	}
	s.pos, s.epochs = pos, epochs
	return nil
}

// StepsPerEpoch returns how many Next calls make up one pass.
func (s *Sampler) StepsPerEpoch() int {
	steps := len(s.indices) / s.batch
	if steps == 0 {
		steps = 1
	}
	return steps
}

// Len returns the number of indices in the sampler's list.
func (s *Sampler) Len() int { return len(s.indices) }
