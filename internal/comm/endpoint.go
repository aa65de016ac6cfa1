package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is one rank's port into a frame transport: ordered, reliable
// point-to-point delivery of frames between ranks. Send must not retain f
// or f.Payload after returning: callers reuse encode scratch, and dense
// tensor chunks are sent straight out of the tensor's own memory. Recv(from)
// returns the next frame that peer sent, blocking until one arrives; frames
// from one peer are delivered in send order, frames from different peers
// are independent. The returned frame and its payload belong to the caller
// (see Frame for the full ownership rule); a decorator must pass it along
// unchanged and must not keep a reference to it.
type Endpoint interface {
	Rank() int
	Procs() int
	Send(to int, f *Frame) error
	Recv(from int) (*Frame, error)
	// NetStats snapshots the bytes and frames that actually crossed this
	// endpoint (loopback channels or TCP sockets) — the physical
	// counterpart of the fabric's logical Stats.
	NetStats() EndpointStats
	Close() error
}

// EndpointStats counts physical transport traffic at one endpoint, plus
// the fault-path counters that make a degraded run diagnosable without
// logs: how many reconnect attempts the endpoint made and how many typed
// ErrTimeout deadline expiries its receives hit, in total and per peer.
type EndpointStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Redials, Timeouts      int64
	// PerPeer is indexed by peer rank (the self slot stays zero). Nil on
	// endpoints built before the first snapshot of a peerless transport.
	PerPeer []PeerNetStats
}

// PeerNetStats is the per-peer slice of the fault-path counters.
type PeerNetStats struct {
	Redials, Timeouts int64
}

type netCounters struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	redials, timeouts      atomic.Int64
	perPeer                []peerCounters
}

type peerCounters struct {
	redials, timeouts atomic.Int64
}

// initPeers sizes the per-peer counter table; safe to skip for
// single-rank transports.
func (c *netCounters) initPeers(procs int) { c.perPeer = make([]peerCounters, procs) }

func (c *netCounters) countRedial(peer int) {
	c.redials.Add(1)
	if peer >= 0 && peer < len(c.perPeer) {
		c.perPeer[peer].redials.Add(1)
	}
}

func (c *netCounters) countTimeout(peer int) {
	c.timeouts.Add(1)
	if peer >= 0 && peer < len(c.perPeer) {
		c.perPeer[peer].timeouts.Add(1)
	}
}

func (c *netCounters) snapshot() EndpointStats {
	s := EndpointStats{
		FramesSent: c.framesSent.Load(), FramesRecv: c.framesRecv.Load(),
		BytesSent: c.bytesSent.Load(), BytesRecv: c.bytesRecv.Load(),
		Redials: c.redials.Load(), Timeouts: c.timeouts.Load(),
	}
	if len(c.perPeer) > 0 {
		s.PerPeer = make([]PeerNetStats, len(c.perPeer))
		for i := range c.perPeer {
			s.PerPeer[i] = PeerNetStats{
				Redials:  c.perPeer[i].redials.Load(),
				Timeouts: c.perPeer[i].timeouts.Load(),
			}
		}
	}
	return s
}

func (c *netCounters) countSend(f *Frame) {
	c.framesSent.Add(1)
	c.bytesSent.Add(int64(HeaderSize + len(f.Payload)))
}

func (c *netCounters) countRecv(f *Frame) {
	c.framesRecv.Add(1)
	c.bytesRecv.Add(int64(HeaderSize + len(f.Payload)))
}

// ErrClosed is returned by Send/Recv on a closed endpoint.
var ErrClosed = errors.New("comm: endpoint closed")

// inboxSize bounds buffered frames per peer. Senders block once a peer is
// this far behind; 8192 frames ≈ 2 GiB of max-size tensor chunks, far past
// anything a collective round leaves in flight.
const inboxSize = 8192

// chanEndpoint is the in-process frame transport: every rank pair shares a
// buffered channel. It exercises the identical framing/collective code
// paths as TCP (payloads are copied through the codec's byte encoding), so
// tests can drive the full wire protocol without sockets.
type chanEndpoint struct {
	rank  int
	procs int
	// inbox[from] receives frames sent by rank `from` to this endpoint.
	inbox  []chan *Frame
	peers  []*chanEndpoint
	closed chan struct{}
	once   sync.Once
	net    netCounters
	// pool recycles the tensor-chunk frames delivered to this endpoint;
	// senders draw their deep copies from the receiver's pool.
	pool framePool
	// heard[from] is the unix-nano arrival time of the last frame from
	// that peer (heartbeats included) — the HeartbeatSource surface.
	heard []atomic.Int64
}

// NewLoopbackEndpoints builds n fully connected in-process endpoints, one
// per rank.
func NewLoopbackEndpoints(n int) []Endpoint {
	if n <= 0 {
		panic("comm: need at least one endpoint")
	}
	eps := make([]*chanEndpoint, n)
	for r := range eps {
		ep := &chanEndpoint{rank: r, procs: n, closed: make(chan struct{})}
		// No inbox for the self slot: Send and Recv refuse self-traffic, so a
		// single-rank transport (the loopback fabric's) owns no channel at all.
		ep.inbox = make([]chan *Frame, n)
		for from := range ep.inbox {
			if from != r {
				ep.inbox[from] = make(chan *Frame, inboxSize)
			}
		}
		ep.heard = make([]atomic.Int64, n)
		ep.net.initPeers(n)
		eps[r] = ep
	}
	out := make([]Endpoint, n)
	for r, ep := range eps {
		ep.peers = eps
		out[r] = ep
	}
	return out
}

func (e *chanEndpoint) Rank() int  { return e.rank }
func (e *chanEndpoint) Procs() int { return e.procs }

func (e *chanEndpoint) Send(to int, f *Frame) error {
	if to < 0 || to >= e.procs || to == e.rank {
		return fmt.Errorf("comm: rank %d cannot send to %d", e.rank, to)
	}
	peer := e.peers[to]
	// Heartbeats refresh the peer's last-heard clock and are consumed at
	// the transport: they must never surface from a collective receive.
	if f.Type == MsgHeartbeat {
		select {
		case <-e.closed:
			return ErrClosed
		case <-peer.closed:
			return fmt.Errorf("comm: send to rank %d: %w", to, ErrPeerDown)
		default:
		}
		e.net.countSend(f)
		peer.net.countRecv(f)
		peer.heard[e.rank].Store(time.Now().UnixNano())
		return nil
	}
	// Deep-copy the frame: the caller owns (and will reuse) f.Payload.
	g := peer.pool.recvFrame(f.Type, len(f.Payload))
	copy(g.Payload, f.Payload)
	g.Flags, g.Worker, g.Seq = f.Flags, f.Worker, f.Seq
	select {
	case <-e.closed:
		g.release()
		return ErrClosed
	case <-peer.closed:
		g.release()
		return fmt.Errorf("comm: send to rank %d: %w", to, ErrPeerDown)
	case peer.inbox[e.rank] <- g:
		e.net.countSend(f)
		peer.net.countRecv(f)
		peer.heard[e.rank].Store(time.Now().UnixNano())
		return nil
	}
}

// LastHeard implements HeartbeatSource: when the peer last sent anything.
func (e *chanEndpoint) LastHeard(from int) time.Time {
	if from < 0 || from >= e.procs {
		return time.Time{}
	}
	ns := e.heard[from].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (e *chanEndpoint) Recv(from int) (*Frame, error) {
	return e.recv(from, nil)
}

// RecvTimeout implements DeadlineRecver: Recv bounded by d, so a
// collective blocked on a dead or partitioned peer gives up with a typed
// ErrTimeout instead of hanging the loopback process forever.
func (e *chanEndpoint) RecvTimeout(from int, d time.Duration) (*Frame, error) {
	if d <= 0 {
		return e.recv(from, nil)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	return e.recv(from, t.C)
}

func (e *chanEndpoint) recv(from int, timeout <-chan time.Time) (*Frame, error) {
	if from < 0 || from >= e.procs || from == e.rank {
		return nil, fmt.Errorf("comm: rank %d cannot recv from %d", e.rank, from)
	}
	select {
	case f := <-e.inbox[from]:
		return f, nil
	case <-timeout:
		e.net.countTimeout(from)
		return nil, fmt.Errorf("comm: recv from rank %d: %w", from, ErrTimeout)
	case <-e.closed:
		// Drain anything already delivered before reporting closure.
		select {
		case f := <-e.inbox[from]:
			return f, nil
		default:
			return nil, ErrClosed
		}
	case <-e.peers[from].closed:
		// The peer hung up (crashed, or its fault plan killed it). Anything
		// it sent before dying is still deliverable.
		select {
		case f := <-e.inbox[from]:
			return f, nil
		default:
			return nil, fmt.Errorf("comm: recv from rank %d: %w", from, ErrPeerDown)
		}
	}
}

func (e *chanEndpoint) NetStats() EndpointStats { return e.net.snapshot() }

func (e *chanEndpoint) Close() error {
	e.once.Do(func() { close(e.closed) })
	return nil
}
