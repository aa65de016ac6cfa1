package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"selsync/internal/tensor"
)

// Mesh is the Fabric: the cluster's synchronization rounds executed over an
// Endpoint. Every reduction folds in worker-id order with tensor.Average's
// arithmetic, which keeps it bit-identical regardless of the process count:
// a dense round relays the running sum from rank to rank, a lossy one
// exchanges every compressed contribution between all ranks, each of which
// folds them and compresses the mean itself, and a dense elastic or
// bucketed one gathers the contributions at rank 0 (reduce.go). Rank 0
// coordinates the flags allgather, the clock maximum, codec negotiation,
// membership and the close barrier. With one rank (NewLoopback) every
// contribution is a local read, so the rounds are direct shared-memory
// kernels and nothing is ever framed; with more, the same code's remaining
// contributions and results cross the endpoint as frame exchanges.
//
// Global workers are block-distributed: with W workers over P processes
// (P must divide W), rank r hosts workers [r·W/P, (r+1)·W/P).
type Mesh struct {
	ep Endpoint
	// rx is the receive-side view of ep: identical to ep without an op
	// timeout, a deadline-applying wrapper with one (SetOpTimeout). Sends
	// always go straight to ep — write-side deadlines belong to the
	// transport (TCPOptions.WriteTimeout).
	rx          Endpoint
	rank, procs int
	workers     int
	nlocal      int
	locals      []int
	stats       Stats

	// Reduce-round state (reduce.go). slots serves every round; runs are the
	// relay's, out the frame the relay and the exchange send from, recvBufs
	// rank 0's staging for gathered rounds. The codec engine (its residuals
	// and message slots) and deltaBuf, the parameter path's uplink delta
	// scratch, are sized on the first lossy round that needs them and
	// untouched under the identity codec.
	slots    []tensor.Vector
	runs     []relayRun
	out      Frame
	recvBufs map[int]tensor.Vector
	cs       codecState
	deltaBuf tensor.Vector

	// scratch is the frame-encode buffer, ctl the control-payload one.
	scratch []byte
	ctl     []byte

	// broken latches after the first transport failure: the SPMD ranks are
	// misaligned, so Close skips the drain barrier (which would block on
	// the dead peer) and tears the endpoint down directly.
	broken bool

	// view is the elastic membership state; nil on a static mesh (every
	// collective then behaves exactly as before elasticity existed).
	view *meshView
	// adopted[r] (rank 0's routing overlay) means dead rank r's workers
	// are now hosted by rank 0, so their collective contributions are
	// local reads instead of wire receives.
	adopted []bool

	hbStop chan struct{}
	hbWG   sync.WaitGroup
}

// fault latches the broken state and wraps a transport error with peer and
// operation context. Allocates only on the failure path.
func (m *Mesh) fault(op string, rank int, err error) error {
	m.broken = true
	return peerErr(op, rank, err)
}

// DeadlineRecver is the optional Endpoint capability the mesh's op timeout
// rides on: RecvTimeout behaves like Recv but gives up after d, returning
// an error wrapping ErrTimeout. Both built-in endpoints implement it.
type DeadlineRecver interface {
	RecvTimeout(from int, d time.Duration) (*Frame, error)
}

// deadlineEP adapts a DeadlineRecver-capable endpoint so every Recv
// carries the configured timeout. Only the receive path is used.
type deadlineEP struct {
	Endpoint
	d time.Duration
}

func (e *deadlineEP) Recv(from int) (*Frame, error) {
	return e.Endpoint.(DeadlineRecver).RecvTimeout(from, e.d)
}

// SetOpTimeout bounds every collective receive on this mesh: a rank stuck
// waiting on a dead or partitioned peer for longer than d gets a typed
// ErrTimeout instead of blocking forever. A non-positive d restores
// unbounded waits. No-op (returning false) when the underlying endpoint
// cannot apply deadlines.
func (m *Mesh) SetOpTimeout(d time.Duration) bool {
	if d <= 0 {
		m.rx = m.ep
		return true
	}
	if _, ok := m.ep.(DeadlineRecver); !ok {
		return false
	}
	m.rx = &deadlineEP{Endpoint: m.ep, d: d}
	return true
}

// NewMesh layers the fabric over an endpoint for the given global worker
// count. Only a mesh with peers gets wire buffers.
func NewMesh(ep Endpoint, workers int) (*Mesh, error) {
	procs := ep.Procs()
	if workers <= 0 || procs <= 0 || workers%procs != 0 {
		return nil, fmt.Errorf("comm: %d workers not divisible over %d processes", workers, procs)
	}
	nlocal := workers / procs
	m := &Mesh{
		ep: ep, rx: ep, rank: ep.Rank(), procs: procs,
		workers: workers, nlocal: nlocal,
		slots:    make([]tensor.Vector, 0, workers),
		recvBufs: make(map[int]tensor.Vector),
	}
	if procs > 1 {
		m.scratch = make([]byte, 0, ChunkElems*8)
		m.ctl = make([]byte, 0, ctlPayloadLen)
	}
	for id := m.rank * nlocal; id < (m.rank+1)*nlocal; id++ {
		m.locals = append(m.locals, id)
	}
	return m, nil
}

// DialTCPMesh builds the TCP endpoint for rank over peers, with default
// options, and layers the worker fabric on it — the one-call backend
// constructor the CLIs use.
func DialTCPMesh(rank int, peers []string, workers int) (*Mesh, error) {
	ep, err := DialTCPOpts(rank, peers, DefaultTCPOptions())
	if err != nil {
		return nil, err
	}
	m, err := NewMesh(ep, workers)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return m, nil
}

// Endpoint returns the transport the mesh runs on (for NetStats).
func (m *Mesh) Endpoint() Endpoint { return m.ep }

// Rank implements Fabric.
func (m *Mesh) Rank() int { return m.rank }

// Procs implements Fabric.
func (m *Mesh) Procs() int { return m.procs }

// Workers implements Fabric.
func (m *Mesh) Workers() int { return m.workers }

// Hosts implements Fabric.
func (m *Mesh) Hosts(worker int) bool { return m.OwnerOf(worker) == m.Rank() }

// LocalWorkers implements Fabric.
func (m *Mesh) LocalWorkers() []int { return m.locals }

// OwnerOf returns the rank hosting a global worker id. On an elastic mesh
// the static block owner is overlaid by the membership view: a dead rank's
// workers belong to rank 0 once adopted (AdoptRank), and to nobody in the
// window between death and adoption.
func (m *Mesh) OwnerOf(worker int) int {
	if worker < 0 || worker >= m.workers {
		return -1
	}
	r := worker / m.nlocal
	if m.view != nil && !m.view.isAlive(r) {
		if m.adopted[r] {
			return 0
		}
		return -1
	}
	return r
}

// EnableElastic switches the mesh into elastic-membership mode with the
// given quorum (≤0 selects DefaultQuorum). Must be called before the
// first collective, on every rank, with the same quorum.
func (m *Mesh) EnableElastic(quorum int) {
	if m.view == nil {
		m.view = newMeshView(m.Procs(), quorum)
		m.adopted = make([]bool, m.Procs())
	}
}

// Elastic reports whether elastic membership is enabled.
func (m *Mesh) Elastic() bool { return m.view != nil }

// Quorum returns the continuation threshold (0 on a static mesh).
func (m *Mesh) Quorum() int {
	if m.view == nil {
		return 0
	}
	return m.view.quorum
}

// CurrentView snapshots the membership view. The zero View is returned on
// a static mesh.
func (m *Mesh) CurrentView() View {
	if m.view == nil {
		return View{}
	}
	return m.view.snapshot()
}

// ViewEpoch returns the current view epoch (0 on a static mesh).
func (m *Mesh) ViewEpoch() uint64 {
	if m.view == nil {
		return 0
	}
	v := m.view.snapshot()
	return v.Epoch
}

// LiveRanks counts the ranks the view believes alive (Procs on a static
// mesh).
func (m *Mesh) LiveRanks() int {
	if m.view == nil {
		return m.Procs()
	}
	return m.view.live()
}

// RankAlive reports the view's belief about one rank (always true on a
// static mesh).
func (m *Mesh) RankAlive(r int) bool {
	if m.view == nil {
		return r >= 0 && r < m.Procs()
	}
	return m.view.isAlive(r)
}

// MarkDead removes a rank from the view — the *planned* transition, called
// SPMD by every surviving rank at the same step boundary, so no view
// broadcast is needed. Returns false when the rank was already dead.
func (m *Mesh) MarkDead(rank int) bool {
	m.EnableElastic(0)
	return m.view.set(rank, false)
}

// MarkAlive re-admits a rank (the rejoin transition, again SPMD) and
// clears its adoption overlay: its workers route to it again.
func (m *Mesh) MarkAlive(rank int) bool {
	m.EnableElastic(0)
	if !m.view.set(rank, true) {
		return false
	}
	m.adopted[rank] = false
	return true
}

// AdoptRank routes a dead rank's workers to rank 0: their collective
// contributions become rank-0 local reads. The train layer calls it (on
// every rank, SPMD) after materializing the orphaned replicas on rank 0.
func (m *Mesh) AdoptRank(rank int) {
	m.EnableElastic(0)
	if !m.view.isAlive(rank) {
		m.adopted[rank] = true
	}
}

// MarkDeadAnnounced removes a rank from the view as an *unplanned*
// transition: rank 0 decided alone (heartbeat silence, transport fault),
// so the epoch bump is marked dirty and piggybacks on the next broadcast.
// Returns false when the rank was already dead.
func (m *Mesh) MarkDeadAnnounced(rank int) bool {
	m.EnableElastic(0)
	return m.view.setAnnounced(rank, false)
}

// TakeSuspects drains the ranks the heartbeat monitor wants promoted to
// dead (rank 0 only; always empty elsewhere and on static meshes).
func (m *Mesh) TakeSuspects() []int {
	if m.view == nil {
		return nil
	}
	return m.view.takeSuspects()
}

// StartHeartbeats begins the liveness protocol: worker ranks beacon
// MsgHeartbeat frames to rank 0 every interval; rank 0 monitors per-peer
// last-heard clocks (any frame counts, so a busy link never needs
// beacons) and queues a peer as suspect once it has been silent past
// timeout. Suspects are drained by TakeSuspects at step boundaries.
// Implies EnableElastic. No-op on a single-rank mesh or when the
// transport cannot track liveness.
func (m *Mesh) StartHeartbeats(interval, timeout time.Duration) {
	if m.Procs() == 1 || m.hbStop != nil || interval <= 0 {
		return
	}
	m.EnableElastic(0)
	m.hbStop = make(chan struct{})
	if m.Rank() != 0 {
		m.hbWG.Add(1)
		go func() {
			defer m.hbWG.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			hb := Frame{Type: MsgHeartbeat, Worker: int32(m.Rank())}
			for {
				select {
				case <-m.hbStop:
					return
				case <-t.C:
					m.ep.Send(0, &hb) // loss shows up as silence at rank 0
				}
			}
		}()
		return
	}
	src := heartbeatSource(m.ep)
	if src == nil {
		return
	}
	m.hbWG.Add(1)
	go func() {
		defer m.hbWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-m.hbStop:
				return
			case <-t.C:
				for r := 1; r < m.Procs(); r++ {
					if !m.view.isAlive(r) {
						continue
					}
					last := src.LastHeard(r)
					if last.IsZero() {
						// Nothing heard yet: measure from monitor start so a
						// rank that never connects still gets promoted.
						last = start
					}
					if time.Since(last) > timeout {
						m.view.suspect(r)
					}
				}
			}
		}
	}()
}

// stopHeartbeats ends both liveness goroutines (idempotent).
func (m *Mesh) stopHeartbeats() {
	if m.hbStop != nil {
		close(m.hbStop)
		m.hbWG.Wait()
		m.hbStop = nil
	}
}

// recvAbsorb receives from ep, absorbing piggybacked membership views,
// which apply immediately and never surface as data.
func (m *Mesh) recvAbsorb(ep Endpoint, from int) (*Frame, error) {
	for {
		f, err := ep.Recv(from)
		if err != nil || f.Type != MsgView {
			return f, err
		}
		if m.view != nil {
			if nv, derr := decodeView(f.Payload, m.Procs()); derr == nil {
				m.view.adopt(nv)
			}
		}
	}
}

// recvFrom is the mesh's receive primitive: the deadline-wrapped rx path
// plus view absorption.
func (m *Mesh) recvFrom(from int) (*Frame, error) {
	return m.recvAbsorb(m.rx, from)
}

// meshRx adapts recvFrom to the receiver interface the tensor-stream
// helpers take. Single-pointer struct: stored directly in the interface,
// no per-call allocation.
type meshRx struct{ m *Mesh }

func (r meshRx) Recv(from int) (*Frame, error) { return r.m.recvFrom(from) }

// elasticSkip handles a gather failure on an elastic mesh: a typed
// transport fault from a non-root peer promotes that peer to dead
// (announced — the epoch bump piggybacks on the next broadcast) and the
// collective continues over the survivors. Returns false when the mesh is
// static or the error is not a peer fault, in which case the caller
// fails the collective as before.
func (m *Mesh) elasticSkip(rank int, err error) bool {
	if m.view == nil || rank == 0 {
		return false
	}
	if !errors.Is(err, ErrPeerDown) && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrCrashed) {
		return false
	}
	m.view.setAnnounced(rank, false)
	return true
}

// pushView piggybacks a pending (announced) view change in front of the
// next broadcast: one MsgView frame per live peer, absorbed by recvFrom
// on the other side before any data frame.
func (m *Mesh) pushView() {
	if m.view == nil {
		return
	}
	v, ok := m.view.takeDirty()
	if !ok {
		return
	}
	payload := appendView(m.scratch[:0], v)
	for r := 1; r < m.Procs(); r++ {
		if !m.view.isAlive(r) {
			continue
		}
		m.ep.Send(r, &Frame{Type: MsgView, Worker: -1, Payload: payload}) // best-effort
	}
}

// FanOut implements Fabric: src is rank-identical by the fabric contract
// (initial snapshot or reduce result), so the pull round is a local fan-out
// copy.
func (m *Mesh) FanOut(dsts []tensor.Vector, src tensor.Vector) {
	tensor.CopyAll(dsts, src)
}

// AllGatherFlags implements Fabric: local votes ride to rank 0 as packed
// bits, the full vote vector rides back. A mis-sized flags slice is a
// caller bug and still panics; transport failures return typed errors.
func (m *Mesh) AllGatherFlags(flags []bool) error {
	if len(flags) != m.workers {
		panic(fmt.Sprintf("comm: flags length %d, want %d", len(flags), m.workers))
	}
	if m.Rank() == 0 {
		for r := 1; r < m.Procs(); r++ {
			if !m.RankAlive(r) {
				// Adopted blocks were filled by rank 0's own hosted votes;
				// an unadopted dead rank's block reads as unanimous "no".
				if !m.adopted[r] {
					clear(flags[r*m.nlocal : (r+1)*m.nlocal])
				}
				continue
			}
			f, err := m.recvTyped(r, MsgFlags)
			if err != nil {
				if m.elasticSkip(r, err) {
					clear(flags[r*m.nlocal : (r+1)*m.nlocal])
					continue
				}
				return m.fault("flags gather", r, err)
			}
			if err := unpackBits(flags[r*m.nlocal:(r+1)*m.nlocal], f.Payload); err != nil {
				return m.fault("flags decode", r, err)
			}
		}
		m.pushView()
		m.scratch = packBits(m.scratch[:0], flags)
		for r := 1; r < m.Procs(); r++ {
			if !m.RankAlive(r) {
				continue
			}
			if err := m.ep.Send(r, &Frame{Type: MsgFlags, Worker: -1, Payload: m.scratch}); err != nil {
				if m.elasticSkip(r, err) {
					continue
				}
				return m.fault("flags broadcast", r, err)
			}
		}
	} else {
		lo := m.Rank() * m.nlocal
		payload := packBits(m.scratch[:0], flags[lo:lo+m.nlocal])
		if err := m.ep.Send(0, &Frame{Type: MsgFlags, Worker: int32(lo), Payload: payload}); err != nil {
			return m.fault("flags push", 0, err)
		}
		f, err := m.recvTyped(0, MsgFlags)
		if err != nil {
			return m.fault("flags pull", 0, err)
		}
		if err := unpackBits(flags, f.Payload); err != nil {
			return m.fault("flags decode", 0, err)
		}
	}
	m.stats.FlagRounds++
	m.stats.FlagBytes += FlagsWireBytes(m.workers)
	return nil
}

// MaxFloat implements Fabric.
func (m *Mesh) MaxFloat(x float64) (float64, error) {
	if m.Rank() == 0 {
		for r := 1; r < m.Procs(); r++ {
			if !m.RankAlive(r) {
				continue
			}
			f, err := m.recvTyped(r, MsgScalar)
			if err != nil {
				if m.elasticSkip(r, err) {
					continue
				}
				return 0, m.fault("clock gather", r, err)
			}
			v, err := getScalar(f.Payload)
			if err != nil {
				return 0, m.fault("clock decode", r, err)
			}
			if v > x {
				x = v
			}
		}
		m.pushView()
		for r := 1; r < m.Procs(); r++ {
			if !m.RankAlive(r) {
				continue
			}
			if err := m.ep.Send(r, &Frame{Type: MsgScalar, Worker: -1, Payload: putScalar(m.scratch[:0], x)}); err != nil {
				if m.elasticSkip(r, err) {
					continue
				}
				return 0, m.fault("clock broadcast", r, err)
			}
		}
		return x, nil
	}
	if err := m.ep.Send(0, &Frame{Type: MsgScalar, Worker: -1, Payload: putScalar(m.scratch[:0], x)}); err != nil {
		return 0, m.fault("clock push", 0, err)
	}
	f, err := m.recvTyped(0, MsgScalar)
	if err != nil {
		return 0, m.fault("clock pull", 0, err)
	}
	v, err := getScalar(f.Payload)
	if err != nil {
		return 0, m.fault("clock decode", 0, err)
	}
	return v, nil
}

func (m *Mesh) recvTyped(from int, t MsgType) (*Frame, error) {
	f, err := m.recvFrom(from)
	if err != nil {
		return nil, err
	}
	if f.Type != t {
		return nil, fmt.Errorf("comm: expected frame type %d from rank %d, got %d", t, from, f.Type)
	}
	return f, nil
}

// AccountPush implements Fabric.
func (m *Mesh) AccountPush(n, dim int) {
	m.stats.Pushes += n
	m.stats.Bytes.Recv += int64(n) * TensorWireBytes(dim)
}

// AccountPull implements Fabric.
func (m *Mesh) AccountPull(n, dim int) {
	m.stats.Pulls += n
	m.stats.Bytes.Sent += int64(n) * TensorWireBytes(dim)
}

// Stats implements Fabric.
func (m *Mesh) Stats() *Stats { return &m.stats }

// Close implements Fabric: a bye/ack drain barrier through rank 0 ensures
// every peer has consumed all data frames before any socket is torn down,
// then the endpoint closes. A broken mesh skips the barrier — at least one
// peer is gone, so waiting on it would hang teardown; survivors tear their
// endpoints down directly. A failure during the barrier itself likewise
// abandons it (the fault latch trips inside the control ops).
func (m *Mesh) Close() error {
	m.stopHeartbeats()
	if m.Procs() > 1 && !m.broken {
		if m.Rank() == 0 {
			for r := 1; r < m.Procs() && !m.broken; r++ {
				if !m.RankAlive(r) {
					continue
				}
				m.recvControl(r)
			}
			for r := 1; r < m.Procs() && !m.broken; r++ {
				if !m.RankAlive(r) {
					continue
				}
				m.sendControl(r, ctlByeAck, 0)
			}
		} else if m.RankAlive(m.Rank()) {
			// A rank the view evicted skips the barrier: rank 0 is no longer
			// listening for its bye.
			if err := m.sendControl(0, ctlBye, 0); err == nil {
				m.recvControl(0)
			}
		}
	}
	return m.ep.Close()
}

// blobChunk bounds one MsgBlob payload, comfortably under MaxPayload.
const blobChunk = MaxPayload / 2

// SendBlob streams an opaque byte blob to a peer as chunked MsgBlob
// frames — the hot-rejoin state transfer (an encoded checkpoint rides
// from rank 0 to the rejoining rank).
func (m *Mesh) SendBlob(to int, b []byte) error {
	seq := uint32(0)
	for off := 0; ; off += blobChunk {
		end := off + blobChunk
		last := false
		if end >= len(b) {
			end = len(b)
			last = true
		}
		f := Frame{Type: MsgBlob, Worker: -1, Seq: seq, Payload: b[off:end]}
		if last {
			f.Flags |= FlagLast
		}
		if err := m.ep.Send(to, &f); err != nil {
			return m.fault("send blob", to, err)
		}
		if last {
			return nil
		}
		seq++
	}
}

// RecvBlob receives one chunked blob from a peer, validating chunk
// sequence, and returns the reassembled bytes. The wait is unbounded
// (the op timeout does not apply): a rejoining rank legitimately blocks
// here for many training steps until rank 0 reaches the join boundary.
func (m *Mesh) RecvBlob(from int) ([]byte, error) {
	var out []byte
	for seq := uint32(0); ; seq++ {
		f, err := m.recvAbsorb(m.ep, from)
		if err != nil {
			return nil, m.fault("recv blob", from, err)
		}
		if f.Type != MsgBlob {
			return nil, fmt.Errorf("comm: expected blob chunk from rank %d, got type %d", from, f.Type)
		}
		if f.Seq != seq {
			return nil, fmt.Errorf("comm: blob chunk seq %d from rank %d, want %d", f.Seq, from, seq)
		}
		out = append(out, f.Payload...)
		if f.Flags&FlagLast != 0 {
			return out, nil
		}
	}
}

// ctlMsg is one decoded control message (codec negotiation, the close
// barrier): an op and one scalar argument.
type ctlMsg struct {
	Op uint8
	A  float64
}

// ctlPayloadLen is a control payload's size: the op byte and the scalar.
const ctlPayloadLen = 1 + 8

// sendControl sends one control message to a peer.
func (m *Mesh) sendControl(to int, op uint8, a float64) error {
	payload := putScalar(append(m.ctl[:0], op), a)
	if err := m.ep.Send(to, &Frame{Type: MsgControl, Worker: -1, Payload: payload}); err != nil {
		return m.fault("send control", to, err)
	}
	return nil
}

// recvControl receives and decodes one control message from a peer.
func (m *Mesh) recvControl(from int) (ctlMsg, error) {
	f, err := m.recvTyped(from, MsgControl)
	if err != nil {
		return ctlMsg{}, m.fault("recv control", from, err)
	}
	if len(f.Payload) != ctlPayloadLen {
		return ctlMsg{}, fmt.Errorf("comm: control payload is %d bytes, want %d", len(f.Payload), ctlPayloadLen)
	}
	a, err := getScalar(f.Payload[1:])
	if err != nil {
		return ctlMsg{}, err
	}
	return ctlMsg{Op: f.Payload[0], A: a}, nil
}

var _ Fabric = (*Mesh)(nil)
