package train

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
)

// Digest returns a SHA-256 digest over every field of the Result with
// exact float bit patterns: two Results digest equal iff they are
// bit-identical. The golden-equivalence tests pin each method's digest
// against the pre-refactor training loops, and the checkpoint/resume CI
// smoke compares an interrupted-and-resumed run against an uninterrupted
// one through the same digest (cmd/selsync-node -digest).
func (r *Result) Digest() string {
	h := sha256.New()
	hs := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	hi := func(v int) { binary.Write(h, binary.LittleEndian, int64(v)) }
	hf := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	hb := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}

	hs(r.Method)
	hs(r.Model)
	hi(r.Steps)
	hi(r.SyncSteps)
	hi(r.LocalSteps)
	hf(r.LSSR)
	hf(r.FinalMetric)
	hf(r.BestMetric)
	hi(r.BestStep)
	hf(r.SimTime)
	hf(r.SimTimeAtBest)
	hb(r.Perplexity)
	hi(len(r.History))
	for _, pt := range r.History {
		hi(pt.Step)
		hf(pt.Epoch)
		hf(pt.SimTime)
		hf(pt.Loss)
		hf(pt.Metric)
	}
	hashFloats(h, r.Deltas)
	keys := make([]int, 0, len(r.Snapshots))
	for k := range r.Snapshots {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	hi(len(keys))
	for _, k := range keys {
		snap := r.Snapshots[k]
		hi(snap.Step)
		hashFloats(h, snap.Params)
		hashFloats(h, snap.Grads)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashFloats(h hash.Hash, vs []float64) {
	binary.Write(h, binary.LittleEndian, int64(len(vs)))
	for _, v := range vs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
}
