package comm

import (
	"errors"
	"slices"
	"testing"
	"time"

	"selsync/internal/tensor"
)

// Satellite contract: every mesh collective must surface a dead peer as a
// *PeerError carrying the peer's rank and the op, unwrapping to the typed
// taxonomy via errors.Is, on both transports. Callers (the engine's fault
// path, the supervisor's exit-code mapping) branch on exactly these
// round-trips.

// checkPeerError asserts the errors.As/errors.Is round-trip.
func checkPeerError(t *testing.T, err error, wantRank int, wantIs error) {
	t.Helper()
	if err == nil {
		t.Fatal("collective against a dead peer must fail")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As(*PeerError) failed on %v", err)
	}
	if pe.Rank != wantRank {
		t.Fatalf("PeerError.Rank = %d, want %d (err: %v)", pe.Rank, wantRank, err)
	}
	if pe.Op == "" {
		t.Fatalf("PeerError.Op empty: %v", err)
	}
	if !errors.Is(err, wantIs) {
		t.Fatalf("errors.Is(%v) failed on %v", wantIs, err)
	}
}

// roundTripCollectives runs every collective on the surviving endpoint of a
// 2-rank pair whose peer is gone, asserting the typed round-trip, one fresh
// mesh per op (the first failure latches a mesh broken). Each op hits a
// deterministic receive failure — rank 0's gather, a worker rank's pull — (a
// send into a dead socket can land in an OS buffer; a receive cannot
// succeed). The last mesh closes ep: broken, so it skips the bye barrier.
func roundTripCollectives(t *testing.T, ep Endpoint, deadRank int) {
	t.Helper()
	const dim = 8
	view := func(int) tensor.Vector { return tensor.NewVector(dim) }
	var m *Mesh
	for _, op := range []func() error{
		func() error { return m.ReduceMean(tensor.NewVector(dim), []int{0, 1}, view) },
		func() error { return m.AllGatherFlags(make([]bool, 2)) },
		func() error { _, err := m.MaxFloat(1); return err },
	} {
		var err error
		if m, err = NewMesh(ep, 2); err != nil {
			t.Fatal(err)
		}
		checkPeerError(t, op(), deadRank, ErrPeerDown)
	}
	m.Close()
}

func TestPeerErrorRoundTripLoopback(t *testing.T) {
	eps := NewLoopbackEndpoints(2)
	eps[0].Close()
	roundTripCollectives(t, eps[1], 0) // worker side: the pull fails

	// (Send-side ops are not asserted: a send to a dead peer may land in the
	// transport buffer before the closure is observed, on loopback and TCP
	// alike. The receive side is where death is deterministic.)
	eps = NewLoopbackEndpoints(2)
	eps[1].Close()
	roundTripCollectives(t, eps[0], 1) // root side: the gather fails
}

func TestPeerErrorRoundTripTCP(t *testing.T) {
	opts := DefaultTCPOptions()
	opts.RedialAttempts = 0 // dead peer stays dead: no repair window
	opts.ReconnectWait = 0
	ep0, ep1 := tcpPair(t, opts)
	exchange(t, ep1, ep0, 1) // mesh is live before the kill
	ep0.Close()
	roundTripCollectives(t, ep1, 0)
}

// TestRelayMiddleHopCrash: in a 3-rank relay (runs rank 0 → rank 1 → rank
// 2, one window), rank 1 crashes at its first send, after taking rank 0's
// partial. No rank hangs: rank 1 surfaces its own crash on the hop to rank
// 2, rank 2 the dead upstream peer, and rank 0 — whose partial was already
// delivered — times out waiting for rank 2's mean, each as a *PeerError
// naming the peer and phase, within the op timeout.
func TestRelayMiddleHopCrash(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	want := []struct {
		rank int
		op   string
		is   error
	}{
		{2, "reduce pull", ErrTimeout},
		{2, "reduce relay send", ErrCrashed},
		{1, "reduce relay recv", ErrPeerDown},
	}
	opts := DefaultTCPOptions()
	opts.RedialAttempts = 0 // a dead peer stays dead: no repair window
	opts.ReconnectWait = 0
	for _, transport := range []struct {
		name string
		eps  func() []Endpoint
	}{
		{"chan", func() []Endpoint { return NewLoopbackEndpoints(3) }},
		{"tcp", func() []Endpoint { return tcpEndpointsOpts(t, 3, opts) }},
	} {
		t.Run(transport.name, func(t *testing.T) {
			eps := transport.eps()
			defer closeAll(eps)
			eps[1] = WithFaults(eps[1], FaultPlan{CrashAtFrame: 1})
			ms := meshes(t, eps, 3)
			errs := make([]error, 3)
			took := make([]time.Duration, 3)
			done := make(chan int)
			for r, m := range ms {
				m.SetOpTimeout(opTimeout)
				go func() {
					start := time.Now()
					errs[r] = m.ReduceMean(tensor.NewVector(7), []int{0, 1, 2}, func(int) tensor.Vector { return tensor.NewVector(7) })
					took[r] = time.Since(start)
					done <- r
				}()
			}
			for range ms {
				select {
				case <-done:
				case <-time.After(10 * opTimeout):
					t.Fatal("a rank of the broken relay hangs")
				}
			}
			for r, w := range want {
				checkPeerError(t, errs[r], w.rank, w.is)
				var pe *PeerError
				errors.As(errs[r], &pe)
				if pe.Op != w.op {
					t.Fatalf("rank %d: %v, want phase %q", r, errs[r], w.op)
				}
				if took[r] > 3*opTimeout {
					t.Fatalf("rank %d took %v to fail, op timeout %v", r, took[r], opTimeout)
				}
			}
		})
	}
}

// TestExchangePeerCrash: in a 3-rank top-k round, rank 2 crashes at its
// first exchange send (its one frame before is the codec negotiation). The
// survivors send to rank 2 last, so each has delivered its message to the
// other before it touches the dead link. No rank hangs: rank 2 surfaces its
// own crash on the link to rank 0, and each survivor a *PeerError naming
// rank 2 — in the send phase if its own message to rank 2 already failed,
// else in the receive phase waiting for rank 2's — within the op timeout.
func TestExchangePeerCrash(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	codec, err := ParseCodec("topk:0.25")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTCPOptions()
	opts.RedialAttempts = 0 // a dead peer stays dead: no repair window
	opts.ReconnectWait = 0
	for _, transport := range []struct {
		name string
		eps  func() []Endpoint
	}{
		{"chan", func() []Endpoint { return NewLoopbackEndpoints(3) }},
		{"tcp", func() []Endpoint { return tcpEndpointsOpts(t, 3, opts) }},
	} {
		t.Run(transport.name, func(t *testing.T) {
			eps := transport.eps()
			defer closeAll(eps)
			eps[2] = WithFaults(eps[2], FaultPlan{CrashAtFrame: 2})
			ms := meshes(t, eps, 3)
			errs := make([]error, 3)
			took := make([]time.Duration, 3)
			done := make(chan int)
			fx := newReduceFixture(3, 40, 47)
			for r, m := range ms {
				m.SetOpTimeout(opTimeout)
				go func() {
					defer func() { done <- r }()
					if errs[r] = m.SetCodec(codec); errs[r] != nil {
						return
					}
					start := time.Now()
					errs[r] = m.ReduceMeanCodec(tensor.NewVector(40), nil, fx.ids, fx.view)
					took[r] = time.Since(start)
				}()
			}
			for range ms {
				select {
				case <-done:
				case <-time.After(10 * opTimeout):
					t.Fatal("a rank of the broken exchange hangs")
				}
			}
			for r := range ms {
				peer, is, ops := 2, ErrPeerDown, []string{"reduce exchange send", "reduce exchange recv"}
				if r == 2 {
					peer, is, ops = 0, ErrCrashed, ops[:1]
				}
				checkPeerError(t, errs[r], peer, is)
				var pe *PeerError
				errors.As(errs[r], &pe)
				if !slices.Contains(ops, pe.Op) {
					t.Fatalf("rank %d: %v, want phase %q", r, errs[r], ops)
				}
				if took[r] > 3*opTimeout {
					t.Fatalf("rank %d took %v to fail, op timeout %v", r, took[r], opTimeout)
				}
			}
		})
	}
}

// TestTimeoutRoundTripThroughMesh: a silent (but alive) peer under an op
// timeout surfaces as *PeerError wrapping ErrTimeout, and the expiry is
// counted in the endpoint's NetStats.
func TestTimeoutRoundTripThroughMesh(t *testing.T) {
	eps := NewLoopbackEndpoints(2)
	defer eps[0].Close()
	defer eps[1].Close()
	m, err := NewMesh(eps[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SetOpTimeout(30 * time.Millisecond) {
		t.Fatal("loopback endpoint must support deadlines")
	}
	gerr := m.AllGatherFlags(make([]bool, 2)) // rank 1 never answers
	checkPeerError(t, gerr, 1, ErrTimeout)
	ns := eps[0].NetStats()
	if ns.Timeouts < 1 {
		t.Fatalf("Timeouts = %d, want ≥ 1", ns.Timeouts)
	}
	if len(ns.PerPeer) != 2 || ns.PerPeer[1].Timeouts < 1 {
		t.Fatalf("PerPeer timeout counters wrong: %+v", ns.PerPeer)
	}
	if ns.PerPeer[0].Timeouts != 0 {
		t.Fatalf("self slot must stay zero: %+v", ns.PerPeer)
	}
}

// TestRedialCountersSurfaceInNetStats: a dialing rank that exhausts its
// redial budget against a gone peer reports every attempt in NetStats,
// in total and in the peer's slot.
func TestRedialCountersSurfaceInNetStats(t *testing.T) {
	opts := DefaultTCPOptions()
	opts.RedialAttempts = 2
	opts.RedialBackoff = 2 * time.Millisecond
	opts.RedialBackoffMax = 10 * time.Millisecond
	opts.ReconnectWait = 20 * time.Millisecond
	ep0, ep1 := tcpPair(t, opts)
	exchange(t, ep1, ep0, 1)
	ep0.Close() // listener gone too: redials cannot land

	// Rank 1 dialed rank 0, so its send path owns the redial. The first
	// writes may land in the OS buffer before the reset arrives — keep
	// sending until the failure surfaces.
	f := Frame{Type: MsgControl}
	deadline := time.Now().Add(10 * time.Second)
	var serr error
	for serr == nil {
		if time.Now().After(deadline) {
			t.Fatal("send to a dead peer never failed")
		}
		serr = ep1.Send(0, &f)
		if serr == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !errors.Is(serr, ErrPeerDown) && !errors.Is(serr, ErrTimeout) {
		t.Fatalf("send error not in the typed taxonomy: %v", serr)
	}
	ns := ep1.NetStats()
	if ns.Redials < int64(opts.RedialAttempts) {
		t.Fatalf("Redials = %d, want ≥ %d", ns.Redials, opts.RedialAttempts)
	}
	if len(ns.PerPeer) != 2 || ns.PerPeer[0].Redials != ns.Redials {
		t.Fatalf("per-peer redials %+v, want all %d attributed to rank 0", ns.PerPeer, ns.Redials)
	}
}
