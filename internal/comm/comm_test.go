package comm

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"selsync/internal/tensor"
)

// withEndpoints runs fn once over channel-loopback endpoints and once over
// a real TCP mesh on 127.0.0.1, so every collective is exercised on both
// transports.
func withEndpoints(t *testing.T, procs int, fn func(t *testing.T, eps []Endpoint)) {
	t.Helper()
	t.Run("chan", func(t *testing.T) {
		eps := NewLoopbackEndpoints(procs)
		defer closeAll(eps)
		fn(t, eps)
	})
	t.Run("tcp", func(t *testing.T) {
		eps := tcpEndpoints(t, procs)
		defer closeAll(eps)
		fn(t, eps)
	})
}

// tcpEndpoints reserves ports race-free by binding 127.0.0.1:0 listeners
// first, then dials the full mesh concurrently.
func tcpEndpoints(t *testing.T, procs int) []Endpoint {
	t.Helper()
	return tcpEndpointsOpts(t, procs, DefaultTCPOptions())
}

// tcpEndpointsOpts is tcpEndpoints with transport options.
func tcpEndpointsOpts(t *testing.T, procs int, opts TCPOptions) []Endpoint {
	t.Helper()
	lns := make([]net.Listener, procs)
	peers := make([]string, procs)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	eps := make([]Endpoint, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := DialTCPWithListenerOpts(r, peers, lns[r], opts)
			eps[r], errs[r] = ep, err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return eps
}

func closeAll(eps []Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// parallelRanks runs fn concurrently for every rank and propagates
// failures.
func parallelRanks(t *testing.T, eps []Endpoint, fn func(ep Endpoint) error) {
	t.Helper()
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			errs[i] = fn(ep)
		}(i, ep)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestEndpointOrderedDelivery(t *testing.T) {
	withEndpoints(t, 3, func(t *testing.T, eps []Endpoint) {
		parallelRanks(t, eps, func(ep Endpoint) error {
			const msgs = 50
			// Every rank sends a numbered scalar stream to every peer,
			// then checks per-peer arrival order.
			for to := 0; to < ep.Procs(); to++ {
				if to == ep.Rank() {
					continue
				}
				for i := 0; i < msgs; i++ {
					f := &Frame{Type: MsgScalar, Seq: uint32(i), Payload: putScalar(nil, float64(ep.Rank()*1000+i))}
					if err := ep.Send(to, f); err != nil {
						return err
					}
				}
			}
			for from := 0; from < ep.Procs(); from++ {
				if from == ep.Rank() {
					continue
				}
				for i := 0; i < msgs; i++ {
					f, err := ep.Recv(from)
					if err != nil {
						return err
					}
					if f.Seq != uint32(i) {
						return fmt.Errorf("from %d: seq %d want %d", from, f.Seq, i)
					}
					v, err := getScalar(f.Payload)
					if err != nil {
						return err
					}
					if v != float64(from*1000+i) {
						return fmt.Errorf("from %d: payload %v", from, v)
					}
				}
			}
			return nil
		})
	})
}

func TestEndpointNetStatsCountWire(t *testing.T) {
	eps := tcpEndpoints(t, 2)
	defer closeAll(eps)
	dim := ChunkElems + 100 // forces chunked streaming
	v := tensor.NewVector(dim)
	tensor.NewRNG(5).NormVector(v, 0, 1)
	got := tensor.NewVector(dim)

	parallelRanks(t, eps, func(ep Endpoint) error {
		if ep.Rank() == 0 {
			_, err := sendTensorEP(ep, 1, -1, v, nil)
			return err
		}
		return recvTensorEP(ep, 0, -1, got)
	})

	want := TensorWireBytes(dim)
	s0, s1 := eps[0].NetStats(), eps[1].NetStats()
	if s0.BytesSent != want {
		t.Fatalf("sender socket bytes %d, want TensorWireBytes=%d", s0.BytesSent, want)
	}
	if s1.BytesRecv != want {
		t.Fatalf("receiver socket bytes %d, want %d", s1.BytesRecv, want)
	}
	if s0.FramesSent != int64(TensorChunks(dim)) || s1.FramesRecv != int64(TensorChunks(dim)) {
		t.Fatalf("frames sent/recv %d/%d, want %d", s0.FramesSent, s1.FramesRecv, TensorChunks(dim))
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("element %d not bit-identical after chunked streaming", i)
		}
	}
}

// meshes builds a Mesh per endpoint.
func meshes(t *testing.T, eps []Endpoint, workers int) []*Mesh {
	t.Helper()
	ms := make([]*Mesh, len(eps))
	for r, ep := range eps {
		m, err := NewMesh(ep, workers)
		if err != nil {
			t.Fatal(err)
		}
		ms[r] = m
	}
	return ms
}

func TestMeshReduceMeanMatchesLoopbackBitwise(t *testing.T) {
	const workers, dim = 8, 700
	vecs := make([]tensor.Vector, workers)
	rng := tensor.NewRNG(19)
	for w := range vecs {
		vecs[w] = tensor.NewVector(dim)
		rng.NormVector(vecs[w], 0, 1)
	}
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	view := func(w int) tensor.Vector { return vecs[w] }

	lb := NewLoopback(workers)
	want := tensor.NewVector(dim)
	if err := lb.ReduceMean(want, ids, view); err != nil {
		t.Fatalf("loopback ReduceMean: %v", err)
	}

	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			eps := NewLoopbackEndpoints(procs)
			defer closeAll(eps)
			ms := meshes(t, eps, workers)
			results := make([]tensor.Vector, procs)
			parallelRanks(t, eps, func(ep Endpoint) error {
				m := ms[ep.Rank()]
				dst := tensor.NewVector(dim)
				if err := m.ReduceMean(dst, ids, view); err != nil {
					return err
				}
				results[ep.Rank()] = dst
				return nil
			})
			for r, got := range results {
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("procs=%d rank %d: element %d not bit-identical to loopback", procs, r, i)
					}
				}
			}
			// Logical ledger matches the loopback fabric on every rank:
			// same Account calls yield identical counters, with byte sizes
			// from the shared wire arithmetic.
			lb.AccountPush(workers, dim)
			lb.AccountPull(workers, dim)
			for _, m := range ms {
				m.AccountPush(workers, dim)
				m.AccountPull(workers, dim)
			}
			for r, m := range ms {
				if *m.Stats() != *lb.Stats() {
					t.Fatalf("rank %d stats %+v != loopback %+v", r, *m.Stats(), *lb.Stats())
				}
			}
			lb.Stats().Pushes, lb.Stats().Pulls = 0, 0
			lb.Stats().Bytes.Recv, lb.Stats().Bytes.Sent = 0, 0
		})
	}
}

func TestMeshFlagsAndClock(t *testing.T) {
	withEndpoints(t, 4, func(t *testing.T, eps []Endpoint) {
		const workers = 8
		ms := meshes(t, eps, workers)
		want := []bool{true, false, false, true, false, true, true, false}
		clocks := []float64{3.5, 9.25, 1.0, 7.5}

		parallelRanks(t, eps, func(ep Endpoint) error {
			m := ms[ep.Rank()]
			flags := make([]bool, workers)
			for _, id := range m.LocalWorkers() {
				flags[id] = want[id]
			}
			if err := m.AllGatherFlags(flags); err != nil {
				return err
			}
			for i := range flags {
				if flags[i] != want[i] {
					return fmt.Errorf("rank %d: flag %d wrong", ep.Rank(), i)
				}
			}
			got, err := m.MaxFloat(clocks[ep.Rank()])
			if err != nil {
				return err
			}
			if got != 9.25 {
				return fmt.Errorf("rank %d: MaxFloat=%v", ep.Rank(), got)
			}
			return nil
		})
		if ms[0].Stats().FlagRounds != 1 || ms[0].Stats().FlagBytes != FlagsWireBytes(workers) {
			t.Fatalf("flag accounting: %+v", *ms[0].Stats())
		}
	})
}

func TestMeshCloseBarrier(t *testing.T) {
	eps := tcpEndpoints(t, 3)
	ms := meshes(t, eps, 3)
	parallelRanks(t, eps, func(ep Endpoint) error {
		return ms[ep.Rank()].Close()
	})
}

func TestMeshRejectsIndivisibleWorkers(t *testing.T) {
	eps := NewLoopbackEndpoints(3)
	defer closeAll(eps)
	if _, err := NewMesh(eps[0], 8); err == nil {
		t.Fatal("8 workers over 3 procs must be rejected")
	}
}
