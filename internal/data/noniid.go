package data

import (
	"fmt"
	"sort"

	"selsync/internal/tensor"
)

// NonIIDPartitions shards a dataset by label so that each worker sees only
// labelsPerWorker distinct classes — the paper's non-IID setting ("1 label
// per-worker for CIFAR10, 10 labels per-worker for CIFAR100", §IV-A).
// Label groups are dealt to workers round-robin; within a worker the
// example order is shuffled. Every example whose label was assigned to some
// worker appears exactly once across all workers.
func NonIIDPartitions(d *Dataset, workers, labelsPerWorker int, seed uint64) [][]int {
	if workers <= 0 || labelsPerWorker <= 0 {
		panic("data: NonIIDPartitions needs positive workers and labelsPerWorker")
	}
	if workers*labelsPerWorker > d.Classes {
		panic(fmt.Sprintf("data: %d workers × %d labels exceeds %d classes",
			workers, labelsPerWorker, d.Classes))
	}
	rng := tensor.NewRNG(seed)

	byLabel := make(map[int][]int)
	for i := 0; i < d.N(); i++ {
		l := d.Label(i)
		byLabel[l] = append(byLabel[l], i)
	}
	labels := make([]int, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	rng.Shuffle(labels)

	out := make([][]int, workers)
	for k, l := range labels[:workers*labelsPerWorker] {
		w := k % workers
		out[w] = append(out[w], byLabel[l]...)
	}
	for w := range out {
		if len(out[w]) == 0 {
			panic(fmt.Sprintf("data: worker %d received no examples; dataset too small or too skewed", w))
		}
		rng.Shuffle(out[w])
	}
	return out
}
