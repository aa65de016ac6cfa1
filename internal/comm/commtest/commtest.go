// Package commtest provides shared helpers for tests that run SPMD code
// across real TCP ranks. Distributed tests across the repo (train, future
// subsystems) use RunRanks instead of hand-rolling the listener/mesh/
// goroutine scaffolding, and the reduce-round benchmarks share ReduceRound.
package commtest

import (
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"selsync/internal/comm"
	"selsync/internal/tensor"
)

// Options tunes the rank harness beyond RunRanks's defaults. The zero
// value reproduces RunRanks exactly: real TCP endpoints with default
// transport options, no decoration, unbounded collective waits.
type Options struct {
	// Loopback runs the ranks over in-process channel endpoints instead of
	// TCP sockets. Same framing and collective code paths, no kernel.
	Loopback bool
	// TCP overrides transport tuning for TCP runs (nil = defaults).
	TCP *comm.TCPOptions
	// Wrap decorates each rank's endpoint before the mesh is layered on
	// top — the hook chaos tests use to interpose comm.WithFaults. Nil is
	// the identity.
	Wrap func(rank int, ep comm.Endpoint) comm.Endpoint
	// OpTimeout bounds every collective receive on each rank's mesh, so a
	// rank blocked on a crashed peer fails with comm.ErrTimeout instead of
	// deadlocking the test.
	OpTimeout time.Duration
}

// RunRanks executes fn SPMD across procs ranks, each on its own real TCP
// endpoint on 127.0.0.1 with its own full-mesh fabric over `workers` global
// workers — exactly what procs separate OS processes would do, minus
// fork/exec. fn must treat its fabric the way a rank's main would: every
// rank runs the same code and they meet at the fabric's collectives. It
// returns every rank's value plus rank 0's fabric stats (captured before
// the fabric closes), and fails the test if any rank panics.
func RunRanks[T any](t testing.TB, procs, workers int, fn func(rank int, fabric comm.Fabric) T) ([]T, *comm.Stats) {
	t.Helper()
	return RunRanksOpts(t, procs, workers, Options{}, fn)
}

// RunRanksOpts is RunRanks with harness options: loopback or TCP transport,
// transport tuning, per-rank endpoint decoration (fault injection), and a
// collective op timeout. Ranks whose endpoints die mid-run must surface
// that as a value of T (e.g. an error field) rather than panicking.
func RunRanksOpts[T any](t testing.TB, procs, workers int, o Options, fn func(rank int, fabric comm.Fabric) T) ([]T, *comm.Stats) {
	t.Helper()
	eps := endpoints(t, procs, o)
	results := make([]T, procs)
	var stats0 comm.Stats
	var wg sync.WaitGroup
	errs := make([]any, procs)
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Sprintf("%v\n%s", p, debug.Stack())
				}
			}()
			ep := eps[r]
			if o.Wrap != nil {
				ep = o.Wrap(r, ep)
			}
			mesh, err := comm.NewMesh(ep, workers)
			if err != nil {
				panic(err)
			}
			if o.OpTimeout > 0 {
				mesh.SetOpTimeout(o.OpTimeout)
			}
			defer mesh.Close()
			results[r] = fn(r, mesh)
			if r == 0 {
				stats0 = *mesh.Stats()
			}
		}(r)
	}
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d panicked: %v", r, e)
		}
	}
	return results, &stats0
}

// endpoints builds procs connected endpoints as o asks: in-process
// channels, or a full TCP mesh on 127.0.0.1 whose ports are reserved
// race-free by binding the listeners before anybody dials.
func endpoints(t testing.TB, procs int, o Options) []comm.Endpoint {
	t.Helper()
	eps := make([]comm.Endpoint, procs)
	if o.Loopback {
		copy(eps, comm.NewLoopbackEndpoints(procs))
		return eps
	}
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
	opts := comm.DefaultTCPOptions()
	if o.TCP != nil {
		opts = *o.TCP
	}
	var dialWG sync.WaitGroup
	dialErrs := make([]error, procs)
	for r := 0; r < procs; r++ {
		dialWG.Add(1)
		go func(r int) {
			defer dialWG.Done()
			eps[r], dialErrs[r] = comm.DialTCPWithListenerOpts(r, peers, lns[r], opts)
		}(r)
	}
	dialWG.Wait()
	for r, err := range dialErrs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	return eps
}

// ReduceRound is a benchmark body: one parameter-server round — a BSP
// step's ReduceMeanCodec through codec, over every worker's dim-element
// vector — per iteration, on a standing mesh of procs ranks hosting perRank
// workers each. The ranks are goroutines of this process on channel
// endpoints, or with tcp on real sockets over 127.0.0.1. Besides the time it
// reports what every rank's endpoint sent per round: socket-B/op (headers
// included) and frames/op. comm's BenchmarkReduceRound and selsync-bench
// -steps both run it, so their numbers compare.
func ReduceRound(b *testing.B, tcp bool, codec comm.Codec, procs, perRank, dim int) {
	eps := endpoints(b, procs, Options{Loopback: !tcp})
	workers := procs * perRank
	ms := make([]*comm.Mesh, procs)
	dsts := make([]tensor.Vector, procs)
	for r, ep := range eps {
		m, err := comm.NewMesh(ep, workers)
		if err != nil {
			b.Fatal(err)
		}
		ms[r], dsts[r] = m, tensor.NewVector(dim)
	}
	// The codec negotiation is a collective: every rank at once.
	negotiated := make(chan error, procs)
	for _, m := range ms {
		go func() { negotiated <- m.SetCodec(codec) }()
	}
	for range ms {
		if err := <-negotiated; err != nil {
			b.Fatal(err)
		}
	}
	rng := tensor.NewRNG(1)
	vecs := make([]tensor.Vector, workers)
	ids := make([]int, workers)
	for w := range vecs {
		vecs[w] = tensor.NewVector(dim)
		rng.NormVector(vecs[w], 0, 1)
		ids[w] = w
	}
	view := func(w int) tensor.Vector { return vecs[w] }

	// Ranks 1… wait on start for each round and answer on done, which holds
	// one answer per rank; closing start makes them close their meshes (the
	// close barrier needs rank 0).
	start := make(chan struct{})
	done := make(chan error, procs-1)
	for r := 1; r < procs; r++ {
		go func() {
			for range start {
				done <- ms[r].ReduceMeanCodec(dsts[r], nil, ids, view)
			}
			done <- ms[r].Close()
		}()
	}
	round := func() {
		for r := 1; r < procs; r++ {
			start <- struct{}{}
		}
		err := ms[0].ReduceMeanCodec(dsts[0], nil, ids, view)
		for r := 1; r < procs; r++ {
			if e := <-done; err == nil {
				err = e
			}
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	wire := func() (frames, bytes int64) {
		for _, ep := range eps {
			ns := ep.NetStats()
			frames, bytes = frames+ns.FramesSent, bytes+ns.BytesSent
		}
		return frames, bytes
	}
	defer func() {
		close(start)
		ms[0].Close()
		for r := 1; r < procs; r++ {
			<-done
		}
	}()

	round() // the first round sizes what the transports pool and the codec keeps
	frames0, bytes0 := wire()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	frames1, bytes1 := wire()
	b.ReportMetric(float64(bytes1-bytes0)/float64(b.N), "socket-B/op")
	b.ReportMetric(float64(frames1-frames0)/float64(b.N), "frames/op")
}
