package comm

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"selsync/internal/tensor"
)

func TestViewCodecRoundtrip(t *testing.T) {
	v := View{Epoch: 0xDEADBEEFCAFE, Alive: []bool{true, false, true, true, false, true, true, true, false}}
	payload := appendView(nil, v)
	got, err := decodeView(payload, len(v.Alive))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != v.Epoch {
		t.Fatalf("epoch %d, want %d", got.Epoch, v.Epoch)
	}
	for i := range v.Alive {
		if got.Alive[i] != v.Alive[i] {
			t.Fatalf("alive[%d] = %v, want %v", i, got.Alive[i], v.Alive[i])
		}
	}
	if _, err := decodeView(payload[:4], len(v.Alive)); err == nil {
		t.Fatal("truncated view payload must fail")
	}
	if v.LiveRanks() != 6 {
		t.Fatalf("LiveRanks = %d, want 6", v.LiveRanks())
	}
}

func TestDefaultQuorum(t *testing.T) {
	for p, want := range map[int]int{1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 8: 5, 16: 9} {
		if got := DefaultQuorum(p); got != want {
			t.Fatalf("DefaultQuorum(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestMeshViewTransitions(t *testing.T) {
	v := newMeshView(4, 0)
	if v.quorum != DefaultQuorum(4) {
		t.Fatalf("quorum %d, want default %d", v.quorum, DefaultQuorum(4))
	}
	// Planned transition: epoch bumps, nothing queued for broadcast.
	if !v.set(2, false) || v.set(2, false) {
		t.Fatal("set must flip once and reject the no-op repeat")
	}
	if _, dirty := v.takeDirty(); dirty {
		t.Fatal("planned transition must not queue a broadcast")
	}
	// Unplanned transition: epoch bumps AND the view is queued.
	if !v.setAnnounced(3, false) {
		t.Fatal("setAnnounced must flip")
	}
	nv, dirty := v.takeDirty()
	if !dirty || nv.Epoch != 2 || nv.Alive[2] || nv.Alive[3] {
		t.Fatalf("takeDirty = %+v, %v", nv, dirty)
	}
	if _, again := v.takeDirty(); again {
		t.Fatal("takeDirty must clear the pending flag")
	}
	// Adoption keeps the epoch monotone: a stale view never rolls back.
	w := newMeshView(4, 0)
	if !w.adopt(nv) || w.epoch != 2 || w.alive[2] || w.alive[3] {
		t.Fatalf("adopt failed: %+v", w)
	}
	if w.adopt(View{Epoch: 1, Alive: []bool{true, true, true, true}}) {
		t.Fatal("stale view must be rejected")
	}
	// Suspects dedupe, skip dead ranks, and drain once.
	w.suspect(1)
	w.suspect(1)
	w.suspect(2) // already dead — ignored
	if s := w.takeSuspects(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("suspects = %v, want [1]", s)
	}
	if s := w.takeSuspects(); s != nil {
		t.Fatalf("drained suspects must be nil, got %v", s)
	}
}

// TestViewPiggybackAbsorbed drives the announcement protocol end to end:
// rank 0 promotes a silent rank to dead, and the epoch-bumped view rides
// in front of the next collective broadcast — the survivor absorbs it on
// the receive path without a dedicated exchange.
func TestViewPiggybackAbsorbed(t *testing.T) {
	eps := NewLoopbackEndpoints(3)
	var wg sync.WaitGroup
	views := make([]View, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m, err := NewMesh(eps[r], 3)
			if err != nil {
				t.Error(err)
				return
			}
			m.EnableElastic(0)
			defer m.Close()
			if r == 2 {
				// The rank being evicted: it marks itself dead (so Close
				// skips the bye barrier) and never joins the collective.
				m.MarkDead(2)
				return
			}
			if r == 0 && !m.MarkDeadAnnounced(2) {
				t.Error("MarkDeadAnnounced must flip rank 2")
			}
			if _, err := m.MaxFloat(float64(r)); err != nil {
				t.Errorf("rank %d MaxFloat: %v", r, err)
			}
			views[r] = m.CurrentView()
		}(r)
	}
	wg.Wait()
	for _, r := range []int{0, 1} {
		if views[r].Epoch != 1 || views[r].Alive[2] || !views[r].Alive[0] || !views[r].Alive[1] {
			t.Fatalf("rank %d view = %+v, want epoch 1 with rank 2 dead", r, views[r])
		}
	}
}

// TestHeartbeatSuspectPromotion: a rank that goes silent past the timeout
// must surface in rank 0's suspect queue.
func TestHeartbeatSuspectPromotion(t *testing.T) {
	eps := NewLoopbackEndpoints(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := NewMesh(eps[1], 2)
		if err != nil {
			t.Error(err)
			return
		}
		m.StartHeartbeats(2*time.Millisecond, 20*time.Millisecond)
		<-stop
		m.MarkDead(1) // skip the bye barrier; rank 0 already evicted us
		m.Close()
	}()
	m0, err := NewMesh(eps[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	m0.StartHeartbeats(2*time.Millisecond, 20*time.Millisecond)
	// Healthy phase: beacons arrive, no suspects accumulate.
	time.Sleep(50 * time.Millisecond)
	if s := m0.TakeSuspects(); len(s) != 0 {
		t.Fatalf("suspects while the peer beacons: %v", s)
	}
	close(stop) // rank 1 stops beaconing
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := m0.TakeSuspects(); len(s) == 1 && s[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent rank 1 never promoted to suspect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m0.MarkDeadAnnounced(1)
	m0.Close()
}

// TestSendRecvBlob pins the state-transfer primitive the rejoin handshake
// rides on: an opaque chunked byte stream between two ranks.
func TestSendRecvBlob(t *testing.T) {
	eps := NewLoopbackEndpoints(2)
	blob := bytes.Repeat([]byte("selsync-state-transfer/"), 40000) // ~1 MB, multiple chunks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := NewMesh(eps[1], 2)
		if err != nil {
			t.Error(err)
			return
		}
		defer m.Close()
		got, err := m.RecvBlob(0)
		if err != nil {
			t.Errorf("RecvBlob: %v", err)
			return
		}
		if !bytes.Equal(got, blob) {
			t.Errorf("blob mismatch: %d bytes, want %d", len(got), len(blob))
		}
	}()
	m0, err := NewMesh(eps[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.SendBlob(1, blob); err != nil {
		t.Fatalf("SendBlob: %v", err)
	}
	m0.Close() // the bye/ack barrier pairs with rank 1's deferred Close
	wg.Wait()
}

// TestReduceMeanOverSurvivors: with a rank marked dead and not adopted, the
// reduce round must average exactly the live workers' contributions,
// bit-identically to the flat fold over the survivors, on every survivor.
func TestReduceMeanOverSurvivors(t *testing.T) {
	const procs, dim = 4, 7
	eps := NewLoopbackEndpoints(procs)
	defer closeAll(eps)
	ms := meshes(t, eps, procs)
	contrib := func(id int) tensor.Vector {
		v := tensor.NewVector(dim)
		for i := range v {
			v[i] = float64(id*100+i) + 0.25
		}
		return v
	}
	want := tensor.NewVector(dim)
	tensor.Average(want, []tensor.Vector{contrib(0), contrib(1), contrib(2)})

	ids := []int{0, 1, 2, 3}
	results := make([]tensor.Vector, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs-1; r++ { // rank 3 is dead and does not call
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ms[r].MarkDead(3)
			dst := tensor.NewVector(dim)
			if err := ms[r].ReduceMean(dst, ids, contrib); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = dst
		}(r)
	}
	wg.Wait()
	for r := 0; r < procs-1; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Fatalf("rank %d elem %d = %v, want %v (bit-identical)", r, i, results[r][i], want[i])
			}
		}
	}
}

// TestRejoinTCPNeedsTheAcceptorsAck: RejoinTCP reports the link up only once
// the peer has answered its hello — the answer says the peer's sends now
// leave on the new connection. A peer that accepts and reads but never
// answers is a typed failure within DialTimeout, not a mesh that looks
// usable and then loses the first message sent to it.
func TestRejoinTCPNeedsTheAcceptorsAck(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never written to
		}
	}()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := own.Addr().String()
	own.Close()

	opts := DefaultTCPOptions()
	opts.DialTimeout = 200 * time.Millisecond
	ep, err := RejoinTCP(1, []string{silent.Addr().String(), addr}, opts)
	if err == nil {
		ep.Close()
		t.Fatal("RejoinTCP returned an endpoint although rank 0 never acknowledged the hello")
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Rank != 0 || !errors.Is(err, ErrTimeout) {
		t.Fatalf("want a *PeerError naming rank 0 and wrapping ErrTimeout, got %v", err)
	}
}

// TestRejoinTCP drives the wire half of hot rejoin: a rank leaves a live
// TCP mesh, a replacement endpoint rebinds its address and dials back in,
// and rank 0's state transfer reaches it through the adopted connection.
func TestRejoinTCP(t *testing.T) {
	const procs = 3
	opts := DefaultTCPOptions()
	opts.RedialBackoff = 5 * time.Millisecond
	opts.RedialBackoffMax = 50 * time.Millisecond

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
	eps := make([]*TCPEndpoint, procs)
	errs := make([]error, procs)
	var dialWG sync.WaitGroup
	for r := 0; r < procs; r++ {
		dialWG.Add(1)
		go func(r int) {
			defer dialWG.Done()
			eps[r], errs[r] = DialTCPWithListenerOpts(r, peers, lns[r], opts)
		}(r)
	}
	dialWG.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}

	blob := bytes.Repeat([]byte{0x5e, 0x15}, 5000)
	left := make(chan struct{})
	rejoined := make(chan struct{})
	transferred := make(chan struct{})
	var wg sync.WaitGroup
	meshes := make([]*Mesh, procs)
	for r := 0; r < procs; r++ {
		m, err := NewMesh(eps[r], procs)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableElastic(0)
		meshes[r] = m
	}
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := meshes[r]
			if r == 2 {
				// Departing rank: evict self, release the listen address.
				m.MarkDead(2)
				m.Close()
				close(left)
				return
			}
			m.MarkDead(2)
			if r == 0 {
				<-rejoined
				m.MarkAlive(2)
				if err := m.SendBlob(2, blob); err != nil {
					t.Errorf("SendBlob to the rejoiner: %v", err)
				}
				<-transferred
				m.MarkDead(2) // the replacement skips the bye barrier
			} else {
				<-transferred
			}
			m.Close()
		}(r)
	}

	// The replacement rank: rebind, dial back in, catch the transfer.
	<-left
	rep, err := RejoinTCP(2, peers, opts)
	if err != nil {
		t.Fatalf("RejoinTCP: %v", err)
	}
	rm, err := NewMesh(rep, procs)
	if err != nil {
		t.Fatal(err)
	}
	close(rejoined)
	got, err := rm.RecvBlob(0)
	if err != nil {
		t.Fatalf("rejoiner RecvBlob: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("rejoiner blob %d bytes, want %d", len(got), len(blob))
	}
	close(transferred)
	rm.EnableElastic(0)
	rm.MarkDead(2)
	rm.Close()
	wg.Wait()
}
