package comm

import (
	"math"
	"sync"
	"testing"
	"time"

	"selsync/internal/tensor"
)

// reduceFixture is a dense ReduceMean problem spanning several chunks, the
// last one short.
type reduceFixture struct {
	workers, dim int
	ids          []int
	vecs         []tensor.Vector
}

func newReduceFixture(workers, dim int, seed uint64) *reduceFixture {
	fx := &reduceFixture{workers: workers, dim: dim}
	rng := tensor.NewRNG(seed)
	for w := 0; w < workers; w++ {
		v := tensor.NewVector(dim)
		rng.NormVector(v, 0, 1)
		fx.vecs = append(fx.vecs, v)
		fx.ids = append(fx.ids, w)
	}
	return fx
}

func (fx *reduceFixture) view(w int) tensor.Vector { return fx.vecs[w] }

// pooledFrames snapshots the frames idle in a channel endpoint's pool.
func pooledFrames(ep Endpoint) map[*Frame]bool {
	p := &ep.(*chanEndpoint).pool
	p.mu.Lock()
	defer p.mu.Unlock()
	set := make(map[*Frame]bool, len(p.free))
	for _, f := range p.free {
		set[f] = true
	}
	return set
}

// TestDenseReduceRecyclesPayloads pins the garbage-free receive path: dense
// Mesh.ReduceMean rounds over channel endpoints allocate payload buffers
// only up to the number of chunks that can be in flight at once, however
// many rounds run. Between rounds every received chunk frame is back in its
// endpoint's pool, so after forty more rounds the pool must still hold
// every full-size frame it held after warm-up (a frame recvTensorEP failed
// to hand back would be missing; the pool itself drops only buffers too
// short for the chunk asked of them) and no more than the in-flight bound
// (a receive that bypassed the pool would have added one per chunk).
func TestDenseReduceRecyclesPayloads(t *testing.T) {
	fx := newReduceFixture(4, 3*ChunkElems+41, 23)
	eps := NewLoopbackEndpoints(2)
	defer closeAll(eps)
	ms := meshes(t, eps, fx.workers)
	round := func() {
		parallelRanks(t, eps, func(ep Endpoint) error {
			return ms[ep.Rank()].ReduceMean(tensor.NewVector(fx.dim), fx.ids, fx.view)
		})
	}
	for i := 0; i < 3; i++ {
		round()
	}
	warm := []map[*Frame]bool{pooledFrames(eps[0]), pooledFrames(eps[1])}
	for i := 0; i < 40; i++ {
		round()
	}
	// Rank 0 takes rank 1's two tensors a round, rank 1 the one mean.
	chunks := TensorChunks(fx.dim)
	for r, bound := range []int{2 * chunks, chunks} {
		now := pooledFrames(eps[r])
		if len(warm[r]) == 0 || len(now) > bound {
			t.Fatalf("rank %d: pool holds %d frames after warm-up and %d after 40 more rounds, want 1..%d", r, len(warm[r]), len(now), bound)
		}
		for f := range warm[r] {
			if cap(f.Payload) >= ChunkElems*8 && !now[f] {
				t.Fatalf("rank %d: a pooled payload buffer was not handed back", r)
			}
		}
	}
}

// TestDenseReduceUnderDupAndDelayMatchesLoopback runs dense reduces over
// channel endpoints behind a fault plan that duplicates and delays frames
// and holds every rank's result to the loopback fabric's bits. A frame
// recycled while the injector or the receiver still referenced it, or
// recycled twice, would be overwritten by a later chunk: a wrong element
// here, and a report under -race.
func TestDenseReduceUnderDupAndDelayMatchesLoopback(t *testing.T) {
	const procs, rounds = 3, 6
	fx := newReduceFixture(6, 2*ChunkElems+7, 29)
	lb := NewLoopback(fx.workers)
	want := tensor.NewVector(fx.dim)

	eps := NewLoopbackEndpoints(procs)
	faulty := make([]Endpoint, procs)
	for r, ep := range eps {
		faulty[r] = WithFaults(ep, FaultPlan{
			Seed:  uint64(100 + r),
			Links: []LinkFault{{From: -1, To: -1, Dup: 0.5, Delay: DelayDist{Min: 0, Max: 200 * time.Microsecond}}},
		})
	}
	defer closeAll(faulty)
	ms := meshes(t, faulty, fx.workers)

	for round := 0; round < rounds; round++ {
		// New contributions every round, so a stale buffer cannot pass for
		// a fresh one.
		for _, v := range fx.vecs {
			v.Scale(-1.25)
		}
		if err := lb.ReduceMean(want, fx.ids, fx.view); err != nil {
			t.Fatal(err)
		}
		got := make([]tensor.Vector, procs)
		errs := make([]error, procs)
		var wg sync.WaitGroup
		for r := range ms {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				got[r] = tensor.NewVector(fx.dim)
				errs[r] = ms[r].ReduceMean(got[r], fx.ids, fx.view)
			}(r)
		}
		wg.Wait()
		for r := range ms {
			if errs[r] != nil {
				t.Fatalf("round %d rank %d: %v", round, r, errs[r])
			}
			for i := range want {
				if math.Float64bits(got[r][i]) != math.Float64bits(want[i]) {
					t.Fatalf("round %d rank %d: element %d differs from loopback", round, r, i)
				}
			}
		}
	}
	dups := 0
	for _, ep := range faulty {
		dups += ep.(*FaultyEndpoint).FaultStats().Dups
	}
	if dups == 0 {
		t.Fatal("fault plan injected no duplicates")
	}
}

// TestRejectedChunksAreRecycled: a chunk frame the receive helpers refuse —
// a corrupt sparse payload, a wrong worker tag, a wrong type, an
// overflowing dense stream — goes back to its pool like a decoded one.
// Every case sends a single frame, so the pool must hold it again once the
// receive has failed.
func TestRejectedChunksAreRecycled(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Frame
		recv func(rx recver, dst tensor.Vector) error
	}{
		{"corrupt-sparse", Frame{Type: MsgSparseChunk, Flags: FlagLast, Worker: 3, Payload: sparseChunk(-1, []uint32{9, 2}, []float64{1, 1})},
			func(rx recver, dst tensor.Vector) error { return recvSparseEP(rx, 1, 3, len(dst), &compactMsg{}) }},
		{"sparse-wrong-worker", Frame{Type: MsgSparseChunk, Flags: FlagLast, Worker: 2, Payload: sparseChunk(-1, []uint32{1}, []float64{1})},
			func(rx recver, dst tensor.Vector) error { return recvSparseEP(rx, 1, 3, len(dst), &compactMsg{}) }},
		{"sparse-wrong-type", Frame{Type: MsgRangeChunk, Flags: FlagLast, Worker: 3, Payload: appendRangeChunk(nil, 0, []float64{1})},
			func(rx recver, dst tensor.Vector) error { return recvSparseEP(rx, 1, 3, len(dst), &compactMsg{}) }},
		{"dense-overflow", Frame{Type: MsgTensorChunk, Flags: FlagLast, Worker: 3, Payload: make([]byte, 8*(16+1))},
			func(rx recver, dst tensor.Vector) error { return recvTensorEP(rx, 1, 3, dst) }},
		{"dense-wrong-seq", Frame{Type: MsgTensorChunk, Flags: FlagLast, Worker: 3, Seq: 4, Payload: make([]byte, 8)},
			func(rx recver, dst tensor.Vector) error { return recvTensorEP(rx, 1, 3, dst) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := NewLoopbackEndpoints(2)
			defer closeAll(eps)
			if err := eps[1].Send(0, &tc.f); err != nil {
				t.Fatal(err)
			}
			if err := tc.recv(eps[0], tensor.NewVector(16)); err == nil {
				t.Fatal("the malformed chunk was accepted")
			}
			if n := len(pooledFrames(eps[0])); n != 1 {
				t.Fatalf("pool holds %d frames after the rejected chunk, want 1", n)
			}
		})
	}
}
