package comm

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions configures the TCP endpoint's setup budgets and runtime
// hardening. The zero value of a duration disables that knob except for
// the setup budgets (DialTimeout, DialRetry, AcceptTimeout, BindRetry),
// which fall back to the legacy defaults — an endpoint cannot be built
// without them. DefaultTCPOptions returns the hardened default set.
type TCPOptions struct {
	// DialTimeout is the total budget for reaching one lower-rank peer
	// during setup; DialRetry is the base pause between attempts (jittered
	// to 50–150% so simultaneously starting ranks don't retry in
	// lock-step).
	DialTimeout time.Duration
	DialRetry   time.Duration
	// AcceptTimeout bounds the wait for the inbound half of the mesh (and
	// each inbound handshake read).
	AcceptTimeout time.Duration
	// BindRetry is the window in which binding the listen address is
	// retried (launchers reserve ports by bind-and-release, so the old
	// socket may still be draining).
	BindRetry time.Duration

	// WriteTimeout is the per-frame write deadline: a peer that stops
	// draining its socket fails the send with ErrTimeout instead of
	// blocking the collective forever.
	WriteTimeout time.Duration
	// ReadStallTimeout bounds the payload read of one frame. The header
	// wait is deliberately unbounded — an idle link is normal between
	// collectives — but a peer that dies mid-frame leaves a truncated
	// payload, which this deadline surfaces as ErrTimeout.
	ReadStallTimeout time.Duration
	// KeepAlive enables TCP keepalive probing at this period, the
	// lightweight peer-liveness detector: a silently vanished peer (power
	// loss, network drop) fails the connection within a few periods
	// instead of never.
	KeepAlive time.Duration

	// RedialAttempts bounds reconnection after a mid-run connection
	// failure: the dialing side of the broken pair re-dials the peer's
	// listener up to this many times with exponential backoff (RedialBackoff
	// doubling up to RedialBackoffMax, jittered to 50–150%). 0 disables
	// reconnection.
	RedialAttempts   int
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// ReconnectWait is how long Recv (and the accepting side of Send)
	// waits for a failed link to heal — via the peer re-dialing us, or our
	// own redial — before reporting ErrPeerDown.
	ReconnectWait time.Duration

	// Seed drives the retry-jitter stream (deterministic per rank when
	// set; rank-derived otherwise).
	Seed uint64
}

// DefaultTCPOptions returns the hardened defaults: legacy setup budgets,
// 30s write and mid-frame read deadlines, 15s keepalive probing, and three
// reconnect attempts backing off 100ms → 2s.
func DefaultTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:      20 * time.Second,
		DialRetry:        50 * time.Millisecond,
		AcceptTimeout:    30 * time.Second,
		BindRetry:        2 * time.Second,
		WriteTimeout:     30 * time.Second,
		ReadStallTimeout: 30 * time.Second,
		KeepAlive:        15 * time.Second,
		RedialAttempts:   3,
		RedialBackoff:    100 * time.Millisecond,
		RedialBackoffMax: 2 * time.Second,
		ReconnectWait:    5 * time.Second,
	}
}

// normalize fills the setup budgets an endpoint cannot run without.
func (o TCPOptions) normalize() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 20 * time.Second
	}
	if o.DialRetry <= 0 {
		o.DialRetry = 50 * time.Millisecond
	}
	if o.AcceptTimeout <= 0 {
		o.AcceptTimeout = 30 * time.Second
	}
	if o.BindRetry < 0 {
		o.BindRetry = 0
	}
	return o
}

// TCPEndpoint is the cross-process frame transport: a full mesh of
// persistent TCP connections, one per rank pair, established once and
// reused for every frame of the run. Rank j dials every rank i < j (the
// dialer introduces itself with a MsgHello frame); rank i accepts the
// remaining connections on its listen address. One reader goroutine per
// connection demultiplexes incoming frames into per-peer inboxes, so a
// send never blocks on an unrelated receive — collectives can gather from
// many peers in a fixed order while frames arrive in any order.
//
// A connection that dies mid-run can heal: the side that originally
// dialed re-dials the peer's listener (bounded exponential backoff with
// jitter), the accepting side keeps its listener open for replacement
// connections, and the per-peer inbox re-arms so in-flight Recv calls ride
// through the repair. When the reconnect budget is exhausted the failure
// surfaces as a typed ErrPeerDown.
type TCPEndpoint struct {
	rank  int
	procs int
	opts  TCPOptions
	peers []string // listen addresses, for re-dialing
	ln    net.Listener
	conns []*tcpConn // indexed by peer rank; nil at self
	in    []*peerIn
	done  chan struct{}
	once  sync.Once
	net   netCounters
	// pool recycles the tensor-chunk frames the readLoops deliver.
	pool framePool
	// heard[from] is the unix-nano arrival time of the last frame read
	// from that peer — heartbeats included, which never reach the inbox.
	heard []atomic.Int64

	jmu  sync.Mutex
	jrng uint64 // splitmix64 state for retry jitter
}

// tcpConn is one live pair connection. The mutex serializes writers and
// guards replacement on reconnect; gen identifies the connection epoch so
// a stale readLoop cannot poison a re-armed inbox.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	gen int
	// writeFrame's header scratch and write vector, kept here (under mu)
	// instead of on its stack so that a send allocates nothing.
	hdr [HeaderSize]byte
	iov [2][]byte
	vec net.Buffers
}

// peerIn is one peer's demux inbox. failed closes when the link breaks
// (with the cause in err); rearm replaces it after a reconnect, bumping
// gen and signalling rearmed so blocked receivers re-check.
type peerIn struct {
	mu      sync.Mutex
	ch      chan *Frame
	failed  chan struct{}
	rearmed chan struct{}
	err     error
	gen     int
}

func newPeerIn() *peerIn {
	return &peerIn{
		ch:      make(chan *Frame, inboxSize),
		failed:  make(chan struct{}),
		rearmed: make(chan struct{}),
	}
}

func (p *peerIn) fail(gen int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.gen {
		return // a stale readLoop from before a reconnect
	}
	select {
	case <-p.failed:
	default:
		p.err = err
		close(p.failed)
	}
}

// rearm resets the failure state after a reconnect and returns the new
// connection generation for the replacement readLoop.
func (p *peerIn) rearm() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	select {
	case <-p.failed:
		p.failed = make(chan struct{})
		p.err = nil
	default:
	}
	close(p.rearmed)
	p.rearmed = make(chan struct{})
	return p.gen
}

func (p *peerIn) state() (failed, rearmed chan struct{}, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed, p.rearmed, p.err
}

// DialTCPOpts builds the full-mesh endpoint for rank over the peer
// addresses (peers[rank] is this rank's listen address). It blocks until
// every pair connection is established. Binding retries for the
// BindRetry window: launchers that reserve ports by bind-and-release
// (selsync-node -launch) hand the address over with a small window in
// which the old socket may still be draining.
func DialTCPOpts(rank int, peers []string, opts TCPOptions) (*TCPEndpoint, error) {
	opts = opts.normalize()
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("comm: rank %d out of range for %d peers", rank, len(peers))
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(opts.BindRetry)
	for {
		ln, err = net.Listen("tcp", peers[rank])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("comm: rank %d cannot listen on %s: %w", rank, peers[rank], err)
		}
		time.Sleep(opts.DialRetry)
	}
	return DialTCPWithListenerOpts(rank, peers, ln, opts)
}

// DialTCPWithListenerOpts is DialTCPOpts over a caller-provided listener —
// tests and the benchmark reserve ports race-free by listening on
// 127.0.0.1:0 first and building the peers list from the bound addresses.
func DialTCPWithListenerOpts(rank int, peers []string, ln net.Listener, opts TCPOptions) (*TCPEndpoint, error) {
	opts = opts.normalize()
	procs := len(peers)
	e := newTCPEndpoint(rank, peers, ln, opts)

	// Accept connections from every higher rank; each introduces itself
	// with a Hello frame. Once the mesh is complete the same goroutine
	// keeps accepting — replacement connections from reconnecting peers.
	expect := procs - 1 - rank
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < expect; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			from, err := readHello(c, opts.AcceptTimeout)
			if err != nil || from <= rank || from >= procs || e.conns[from] != nil {
				c.Close()
				acceptErr <- fmt.Errorf("comm: rank %d bad handshake (peer %d): %v", rank, from, err)
				return
			}
			e.tuneConn(c)
			e.conns[from] = &tcpConn{c: c}
		}
		acceptErr <- nil
		e.acceptReplacements()
	}()

	// Dial every lower rank, retrying while its listener comes up.
	for to := 0; to < rank; to++ {
		c, err := e.dialRetry(peers[to])
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("comm: rank %d cannot reach rank %d at %s: %w", rank, to, peers[to], err)
		}
		e.tuneConn(c)
		tc := &tcpConn{c: c}
		e.conns[to] = tc
		hello := &Frame{Type: MsgHello, Worker: int32(rank)}
		if err := e.writeFrame(tc, hello); err != nil {
			e.teardown()
			return nil, fmt.Errorf("comm: rank %d hello to rank %d: %w", rank, to, err)
		}
	}

	select {
	case err := <-acceptErr:
		if err != nil {
			e.teardown()
			return nil, err
		}
	case <-time.After(opts.AcceptTimeout):
		// Stop the accept goroutine (closing the listener fails its
		// Accept) and wait for it to report before teardown touches
		// e.conns — the accept goroutine writes slots until it exits.
		ln.Close()
		<-acceptErr
		e.teardown()
		return nil, fmt.Errorf("comm: rank %d timed out waiting for %d inbound connections", rank, expect)
	}

	for from, tc := range e.conns {
		if tc != nil {
			go e.readLoop(from, tc.c, tc.gen)
		}
	}
	return e, nil
}

// newTCPEndpoint allocates the endpoint shell shared by the full-mesh
// dial and the rejoin path.
func newTCPEndpoint(rank int, peers []string, ln net.Listener, opts TCPOptions) *TCPEndpoint {
	procs := len(peers)
	e := &TCPEndpoint{
		rank: rank, procs: procs, opts: opts,
		peers: append([]string(nil), peers...),
		ln:    ln,
		conns: make([]*tcpConn, procs),
		in:    make([]*peerIn, procs),
		done:  make(chan struct{}),
		heard: make([]atomic.Int64, procs),
		jrng:  opts.Seed ^ (0x9E3779B97F4A7C15 + uint64(rank)),
	}
	e.net.initPeers(procs)
	for r := range e.in {
		if r != rank {
			e.in[r] = newPeerIn()
		}
	}
	return e
}

// RejoinTCP builds the endpoint for a rank re-entering a running mesh
// (selsync-node -join): it rebinds the rank's listen address, dials every
// lower rank — whose endpoints adopt the replacement connection exactly as
// the mid-run reconnect protocol does, and say so with a Hello of their own
// before this returns (a *PeerError if none arrives within DialTimeout) —
// and starts accepting, without waiting for higher ranks to connect. In the
// rank-0-rooted collective star only the links toward lower ranks carry
// traffic, so the mesh is usable as soon as those dials land; a higher rank
// that does need the link re-establishes it through its own redial path.
func RejoinTCP(rank int, peers []string, opts TCPOptions) (*TCPEndpoint, error) {
	opts = opts.normalize()
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("comm: rank %d out of range for %d peers", rank, len(peers))
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(opts.BindRetry)
	for {
		ln, err = net.Listen("tcp", peers[rank])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("comm: rejoining rank %d cannot listen on %s: %w", rank, peers[rank], err)
		}
		time.Sleep(opts.DialRetry)
	}
	e := newTCPEndpoint(rank, peers, ln, opts)
	// Every peer slot gets an (empty) connection shell so replacement
	// adoption — from our dials below or from higher ranks dialing us
	// later — follows the one repair path.
	for r := range e.conns {
		if r != rank {
			e.conns[r] = &tcpConn{}
		}
	}
	go e.acceptReplacements()
	for to := 0; to < rank; to++ {
		c, err := e.dialRetry(peers[to])
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("comm: rejoining rank %d cannot reach rank %d at %s: %w", rank, to, peers[to], err)
		}
		e.tuneConn(c)
		tc := &tcpConn{c: c}
		hello := &Frame{Type: MsgHello, Worker: int32(rank)}
		if err := e.writeFrame(tc, hello); err != nil {
			e.teardown()
			return nil, fmt.Errorf("comm: rejoining rank %d hello to rank %d: %w", rank, to, err)
		}
		// The peer answers once it has adopted the connection: only then do
		// its sends to this rank leave on c rather than on the dead link.
		if _, err := readHello(c, opts.DialTimeout); err != nil {
			e.teardown()
			return nil, peerErr("rejoin handshake", to, err)
		}
		e.adoptConn(to, c, false)
	}
	return e, nil
}

// tuneConn applies keepalive probing to a fresh connection.
func (e *TCPEndpoint) tuneConn(c net.Conn) {
	if e.opts.KeepAlive <= 0 {
		return
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(e.opts.KeepAlive)
	}
}

// jitter scales d to 50–150% with the endpoint's deterministic jitter
// stream, so simultaneously retrying ranks spread out.
func (e *TCPEndpoint) jitter(d time.Duration) time.Duration {
	e.jmu.Lock()
	u := splitmix64(&e.jrng)
	e.jmu.Unlock()
	return time.Duration(float64(d) * (0.5 + unitFloat(u)))
}

func (e *TCPEndpoint) dialRetry(addr string) (net.Conn, error) {
	deadline := time.Now().Add(e.opts.DialTimeout)
	for {
		c, err := net.DialTimeout("tcp", addr, e.opts.DialRetry*10)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(e.jitter(e.opts.DialRetry))
	}
}

// acceptReplacements runs after mesh setup: a reconnecting peer (any rank,
// not just the original dialers — the repair protocol is symmetric on the
// wire) re-introduces itself with a Hello, and the pair connection swaps
// under its lock while the inbox re-arms.
func (e *TCPEndpoint) acceptReplacements() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed by teardown
		}
		go func(c net.Conn) {
			from, err := readHello(c, e.opts.AcceptTimeout)
			if err != nil || from < 0 || from >= e.procs || from == e.rank || e.conns[from] == nil {
				c.Close()
				return
			}
			e.tuneConn(c)
			e.adoptConn(from, c, true)
		}(c)
	}
}

// adoptConn installs a replacement connection for a peer: swap the pair
// connection, re-arm the inbox, and start the new epoch's readLoop. The
// accepting side acks with a Hello of its own, which the dialer waits for
// before it reports the link up (RejoinTCP, redial): without it a dialer
// could announce itself while this side still sends on the dead connection.
// The ack goes out under the lock the swap takes, so it is the first frame
// on c even when a sender was parked waiting for the re-arm.
func (e *TCPEndpoint) adoptConn(from int, c net.Conn, ack bool) {
	tc := e.conns[from]
	tc.mu.Lock()
	if tc.c != nil {
		tc.c.Close()
	}
	tc.c = c
	tc.gen++
	if ack {
		// A failed write means c is already dead; the readLoop started
		// below reports that the way it reports any broken link.
		_ = e.writeFrameLocked(tc, &Frame{Type: MsgHello, Worker: int32(e.rank)})
	}
	tc.mu.Unlock()
	gen := e.in[from].rearm()
	go e.readLoop(from, c, gen)
}

// readHello reads the handshake straight off the raw connection — no
// buffering, so not a single byte of any frame the dialer pipelines after
// its hello can be consumed and lost before readLoop takes over. (Hello
// frames carry no payload, so readFrame performs exactly one 20-byte
// ReadFull here.)
func readHello(c net.Conn, timeout time.Duration) (int, error) {
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	f, err := readFrame(c)
	if err != nil {
		return -1, err
	}
	if f.Type != MsgHello {
		return -1, fmt.Errorf("comm: expected hello, got frame type %d", f.Type)
	}
	if len(f.Payload) != 0 {
		return -1, fmt.Errorf("comm: hello frame carries %d payload bytes", len(f.Payload))
	}
	return int(f.Worker), nil
}

// readFrame reads one wire frame (the shared stream framing helper).
func readFrame(r io.Reader) (*Frame, error) {
	return ReadFrame(r)
}

// readFrameStall is readFrame with the per-op read deadline: the header
// wait is unbounded (idle links are normal), the payload read — already
// promised by the header — must complete within stall. Tensor-stream chunks
// are read into frames drawn from pool.
func readFrameStall(br *bufio.Reader, c net.Conn, stall time.Duration, pool *framePool) (*Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	h, n, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	f := pool.recvFrame(h.Type, n)
	f.Flags, f.Worker, f.Seq = h.Flags, h.Worker, h.Seq
	if n > 0 {
		if stall > 0 {
			c.SetReadDeadline(time.Now().Add(stall))
		}
		_, err := io.ReadFull(br, f.Payload)
		if stall > 0 {
			c.SetReadDeadline(time.Time{})
		}
		if err != nil {
			f.release()
			return nil, fmt.Errorf("comm: truncated payload: %w", err)
		}
	}
	return f, nil
}

func (e *TCPEndpoint) readLoop(from int, c net.Conn, gen int) {
	// A default-sized (4 KiB) buffer: enough to take a small frame's header
	// and payload in one read, and all of a chunk payload beyond it is read
	// straight into the frame's buffer instead of being copied through here.
	br := bufio.NewReader(c)
	p := e.in[from]
	for {
		f, err := readFrameStall(br, c, e.opts.ReadStallTimeout, &e.pool)
		if err != nil {
			select {
			case <-e.done:
				p.fail(gen, ErrClosed)
			default:
				p.fail(gen, peerErr("read", from, err))
			}
			return
		}
		e.net.countRecv(f)
		e.heard[from].Store(time.Now().UnixNano())
		if f.Type == MsgHeartbeat {
			continue // liveness beacon: refresh the clock, never deliver
		}
		select {
		case p.ch <- f:
		case <-e.done:
			p.fail(gen, ErrClosed)
			return
		}
	}
}

// LastHeard implements HeartbeatSource: when the peer's socket last
// delivered a frame (heartbeat or data).
func (e *TCPEndpoint) LastHeard(from int) time.Time {
	if from < 0 || from >= e.procs {
		return time.Time{}
	}
	ns := e.heard[from].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Rank implements Endpoint.
func (e *TCPEndpoint) Rank() int { return e.rank }

// Procs implements Endpoint.
func (e *TCPEndpoint) Procs() int { return e.procs }

// Alive reports whether the link to a peer is currently believed healthy:
// its readLoop has not failed (keepalive probing turns silent peer death
// into a read failure within a few periods).
func (e *TCPEndpoint) Alive(peer int) bool {
	if peer == e.rank {
		return true
	}
	if peer < 0 || peer >= e.procs {
		return false
	}
	failed, _, _ := e.in[peer].state()
	select {
	case <-failed:
		return false
	default:
		return true
	}
}

// Send implements Endpoint. Frames to one peer are serialized under the
// connection lock; the persistent connection is reused for the whole run.
// A write failure triggers the bounded reconnect protocol before
// reporting a typed error.
func (e *TCPEndpoint) Send(to int, f *Frame) error {
	if to < 0 || to >= e.procs || to == e.rank || e.conns[to] == nil {
		return fmt.Errorf("comm: rank %d cannot send to %d", e.rank, to)
	}
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	err := e.writeFrame(e.conns[to], f)
	if err != nil {
		err = e.sendRepair(to, f, err)
	}
	if err != nil {
		return peerErr("send", to, err)
	}
	e.net.countSend(f)
	return nil
}

// sendRepair attempts to heal a broken pair connection and retry the
// write. The side that originally dialed (rank > to) re-dials the peer's
// listener with exponential backoff + jitter; the accepting side waits for
// the peer to re-dial us. Returns nil when the retried write succeeded.
func (e *TCPEndpoint) sendRepair(to int, f *Frame, cause error) error {
	if e.opts.RedialAttempts <= 0 {
		return cause
	}
	if to < e.rank {
		return e.redial(to, f, cause)
	}
	// Accepting side: the peer owns the redial. Wait for the inbox to
	// re-arm (adoptConn swapped the connection) and retry once.
	_, rearmed, _ := e.in[to].state()
	wait := e.opts.ReconnectWait
	if wait <= 0 {
		return cause
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-rearmed:
		return e.writeFrame(e.conns[to], f)
	case <-e.done:
		return ErrClosed
	case <-t.C:
		return cause
	}
}

// redial re-establishes the dialed connection to a lower rank: bounded
// attempts, exponential backoff with jitter, a fresh Hello, then the
// retried write.
func (e *TCPEndpoint) redial(to int, f *Frame, cause error) error {
	backoff := e.opts.RedialBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	max := e.opts.RedialBackoffMax
	if max < backoff {
		max = backoff
	}
	var lastErr = cause
	for attempt := 0; attempt < e.opts.RedialAttempts; attempt++ {
		e.net.countRedial(to)
		select {
		case <-e.done:
			return ErrClosed
		case <-time.After(e.jitter(backoff)):
		}
		if backoff *= 2; backoff > max {
			backoff = max
		}
		c, err := net.DialTimeout("tcp", e.peers[to], e.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		e.tuneConn(c)
		tc := &tcpConn{c: c}
		hello := &Frame{Type: MsgHello, Worker: int32(e.rank)}
		if err := e.writeFrame(tc, hello); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		// The acceptor's ack (see adoptConn) is consumed here, off the raw
		// connection, so it never reaches the inbox.
		if _, err := readHello(c, e.opts.DialTimeout); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		e.adoptConn(to, c, false)
		if err := e.writeFrame(e.conns[to], f); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// writeFrame sends header and payload in one vectored write: the payload
// goes from the caller's memory to the socket without a staging copy.
func (e *TCPEndpoint) writeFrame(tc *tcpConn, f *Frame) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return e.writeFrameLocked(tc, f)
}

// writeFrameLocked is writeFrame for a caller that holds tc.mu.
func (e *TCPEndpoint) writeFrameLocked(tc *tcpConn, f *Frame) error {
	if tc.c == nil {
		// A rejoin endpoint's link to a higher rank that has not connected
		// back yet.
		return fmt.Errorf("comm: no connection established: %w", ErrPeerDown)
	}
	if e.opts.WriteTimeout > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(e.opts.WriteTimeout))
		defer tc.c.SetWriteDeadline(time.Time{})
	}
	putHeader(tc.hdr[:], f, len(f.Payload))
	tc.iov[0], tc.iov[1] = tc.hdr[:], f.Payload
	tc.vec = tc.iov[:]
	if len(f.Payload) == 0 {
		tc.vec = tc.iov[:1]
	}
	_, err := tc.vec.WriteTo(tc.c)
	tc.iov[1] = nil // do not keep the caller's payload reachable
	return err
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv(from int) (*Frame, error) {
	return e.recv(from, 0)
}

// RecvTimeout implements DeadlineRecver: Recv bounded by d, failing with a
// typed ErrTimeout so a collective stuck on a dead peer can give up.
func (e *TCPEndpoint) RecvTimeout(from int, d time.Duration) (*Frame, error) {
	return e.recv(from, d)
}

func (e *TCPEndpoint) recv(from int, timeout time.Duration) (*Frame, error) {
	if from < 0 || from >= e.procs || from == e.rank {
		return nil, fmt.Errorf("comm: rank %d cannot recv from %d", e.rank, from)
	}
	p := e.in[from]
	var tch <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tch = t.C
	}
	for {
		failed, rearmed, ferr := p.state()
		select {
		case f := <-p.ch:
			return f, nil
		case <-tch:
			e.net.countTimeout(from)
			return nil, fmt.Errorf("comm: recv from rank %d: %w", from, ErrTimeout)
		case <-e.done:
			select {
			case f := <-p.ch:
				return f, nil
			default:
				return nil, ErrClosed
			}
		case <-failed:
			// Re-read the cause: the state() snapshot above may predate the
			// failure, leaving ferr stale (nil).
			_, _, ferr = p.state()
			// Drain anything delivered before the link broke.
			select {
			case f := <-p.ch:
				return f, nil
			default:
			}
			if e.opts.ReconnectWait <= 0 || e.opts.RedialAttempts <= 0 {
				return nil, ferr
			}
			// Give the repair protocol a window: the peer may re-dial us
			// (or our own Send-path redial may land) and re-arm the inbox.
			grace := time.NewTimer(e.opts.ReconnectWait)
			select {
			case f := <-p.ch:
				grace.Stop()
				return f, nil
			case <-rearmed:
				grace.Stop()
				continue
			case <-tch:
				grace.Stop()
				e.net.countTimeout(from)
				return nil, fmt.Errorf("comm: recv from rank %d: %w", from, ErrTimeout)
			case <-e.done:
				grace.Stop()
				return nil, ErrClosed
			case <-grace.C:
				return nil, ferr
			}
		}
	}
}

// NetStats implements Endpoint.
func (e *TCPEndpoint) NetStats() EndpointStats { return e.net.snapshot() }

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.teardown()
	return nil
}

func (e *TCPEndpoint) teardown() {
	e.once.Do(func() {
		close(e.done)
		if e.ln != nil {
			e.ln.Close()
		}
		for _, tc := range e.conns {
			if tc != nil {
				tc.mu.Lock()
				if tc.c != nil {
					tc.c.Close()
				}
				tc.mu.Unlock()
			}
		}
	})
}
