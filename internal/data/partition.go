package data

import (
	"fmt"

	"selsync/internal/tensor"
)

// Scheme selects an IID data-partitioning strategy (paper §III-D, Fig. 7).
type Scheme int

const (
	// DefDP is the default scheme of BSP training: the dataset is split
	// into one unique chunk per worker and each worker only ever samples
	// from its own chunk.
	DefDP Scheme = iota
	// SelDP is SelSync's scheme: the same chunks are arranged as a
	// circular queue whose head is rotated by the worker id, so every
	// worker eventually visits the whole dataset while synchronized steps
	// still process disjoint chunks.
	SelDP
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case DefDP:
		return "DefDP"
	case SelDP:
		return "SelDP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Partitions builds the per-worker ordered index lists for a dataset of n
// examples under the given scheme. The dataset order is shuffled once with
// the seed (the "one-time overhead ... executed prior training" of §III-D)
// and then cut into `workers` equal chunks; a remainder of fewer than
// `workers` examples is dropped so chunks stay aligned across workers.
//
//	DefDP:  worker w gets chunk w only.
//	SelDP:  worker w gets chunks w, w+1, …, wrapping around.
func Partitions(scheme Scheme, n, workers int, seed uint64) [][]int {
	if workers <= 0 {
		panic("data: Partitions needs at least one worker")
	}
	if n < workers {
		panic(fmt.Sprintf("data: cannot split %d examples across %d workers", n, workers))
	}
	rng := tensor.NewRNG(seed)
	order := rng.Perm(n)
	chunkLen := n / workers
	chunk := func(c int) []int { return order[c*chunkLen : (c+1)*chunkLen] }

	out := make([][]int, workers)
	for w := 0; w < workers; w++ {
		switch scheme {
		case DefDP:
			ids := make([]int, chunkLen)
			copy(ids, chunk(w))
			out[w] = ids
		case SelDP:
			ids := make([]int, 0, chunkLen*workers)
			for k := 0; k < workers; k++ {
				ids = append(ids, chunk((w+k)%workers)...)
			}
			out[w] = ids
		default:
			panic("data: unknown partition scheme")
		}
	}
	return out
}
