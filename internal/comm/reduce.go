package comm

import (
	"fmt"

	"selsync/internal/tensor"
)

// The reduce round — the one aggregation op a synchronizing step calls.
// Every entry point (ReduceMean, ReduceMeanCodec) computes the same mean:
// tensor.Average over one vector per id, folded in ids order, delivered
// bit-identical to every rank. A round covers the whole vector at once, and
// it takes one of three routes, chosen from what the mesh already knows —
// the codec and the membership — never from an option.
//
// The relay: a dense round on a static mesh (the identity codec, or a
// diagnostic read). tensor.Average is a sequential fold — d = +0, then
// d += v per id, then d·1/n (tensor.Accumulate) — so the running sum can
// travel instead of the contributions. ids is cut into runs of consecutive
// ids one rank hosts; per ChunkElems window, a run's rank receives the
// partial sum from the previous run's rank into dst (the first run starts
// from +0), folds its own contributions into it and forwards it; the last
// run's rank scales by 1/n and sends the mean window to every other rank,
// which receives it straight into dst. A rank ships one vector per run
// instead of one per contribution, nothing is staged, and every rank folds
// its own workers. Partial streams are tagged with the first id their
// receiver folds, means with −1, and every window's tag and place are
// checked on arrival. Frames of one link arrive in send order, so a rank
// whose run follows one of the last rank's runs takes mean window c before
// partial window c+1 from it; every other rank takes the means after its
// last window. One rank is the relay with one run and no frames: one
// tensor.Average call.
//
// The exchange: every lossy round, which only a static mesh runs. A lossy
// codec runs each message through its error-feedback round trip
// (roundTrip) on the rank that owns the worker's residual, so the values
// averaged are exactly the values the wire carries. Each rank encodes its
// hosted contributions in ids order and sends each message to every peer;
// then it receives the peers' messages in ids order, folds all of them
// with tensor.Average's arithmetic into its own replica of the downlink
// residual and runs the downlink round trip on that replica. Every rank
// folds the same messages, so the replicas and the means they decode stay
// bit-identical without a downlink message ever crossing the wire — and
// one rank executes the identical float64 arithmetic without the sockets.
// Top-k messages fold as entries (foldSparseMean): their values are summed
// per position in slot order and the mean is added straight into the
// residual, touching only the positions some message carries — no message
// is decoded densely and nothing dense is averaged. Quantized and partial
// messages are decoded into one dense slot per contribution and averaged.
// A rank sends all of its messages before it receives any. That relies on
// the inbox bound: an endpoint buffers up to 8192 frames per peer
// (inboxSize) whether or not the mesh above it is receiving, and a round
// puts hosted contributions × chunks per message frames on each link —
// 8192 frames is 8192·ChunkElems elements (or top-k entries) for a rank
// hosting one worker — so no send waits on a peer that is itself still
// sending.
//
// The gather, for the dense round on an elastic mesh only: per id in ids
// order the owning rank's contribution reaches rank 0, rank 0 folds them
// with tensor.Average and sends the mean back. Rank 0 re-forms the mean
// over the survivors and piggybacks view changes on the broadcast.
//
// Whichever the route, the ledger is the parameter server's logical one (a
// pure function of codec, dim and round, so the route never shows in it):
// parameter-server rounds write it, diagnostic reads do not.

// validateReduceArgs refuses an empty round and checks the ref/dst size and
// aliasing rules.
func validateReduceArgs(dst, ref tensor.Vector) error {
	if len(dst) == 0 {
		return fmt.Errorf("comm: reduce over an empty vector")
	}
	if ref != nil && len(ref) != len(dst) {
		return fmt.Errorf("comm: codec reduce ref has %d elements, dst %d", len(ref), len(dst))
	}
	if ref != nil && &ref[0] == &dst[0] {
		return fmt.Errorf("comm: codec reduce ref must not alias dst")
	}
	return nil
}

// codecMsgSrc returns the message for one contribution: the raw values
// (gradient path) or the delta against ref written into delta (parameter
// path).
func codecMsgSrc(src, ref, delta tensor.Vector) tensor.Vector {
	if ref == nil {
		return src
	}
	for i := range delta {
		delta[i] = src[i] - ref[i]
	}
	return delta
}

// applyDelta finishes a parameter-path downlink in place: d holds
// the decoded mean delta and becomes ref + d, so positions the codec left out
// stay exactly at ref.
func applyDelta(d, ref tensor.Vector) {
	for i := range d {
		d[i] = ref[i] + d[i]
	}
}

// accountCodec writes the logical ledger for one parameter-server round of
// dim elements: pushes pushes of the uplink bytes, one pull per global
// worker of the downlink bytes. Rank-invariant by construction (pure
// function of codec, dim and round), so every rank's ledger matches; under
// the identity codec the sizes are TensorWireBytes.
func (cs *codecState) accountCodec(st *Stats, pushes, workers, dim int, round uint64) {
	st.Pushes += pushes
	st.Bytes.Recv += int64(pushes) * cs.codec.up().wireBytes(dim, round)
	st.Pulls += workers
	st.Bytes.Sent += int64(workers) * cs.codec.down().wireBytes(dim, round)
}

// SetCodec implements Fabric: installs the codec and verifies every rank
// negotiated the same one (fingerprints through rank 0; with one rank there
// is nobody to ask). This is where elastic membership and payload codecs
// exclude each other — error-feedback residuals cannot survive adoption
// handoffs.
func (m *Mesh) SetCodec(c Codec) error {
	if m.Elastic() {
		return fmt.Errorf("comm: payload codec %q requires static membership (elastic mesh)", c)
	}
	m.cs.codec = c
	if m.procs == 1 {
		return nil
	}
	fp := float64(c.Fingerprint())
	if m.rank == 0 {
		// Gather every rank's fingerprint, then always ack with rank 0's own
		// before reporting a mismatch — a silent error here would leave the
		// peers blocked in their ack wait.
		var mismatch error
		for r := 1; r < m.procs; r++ {
			cm, err := m.recvControl(r)
			if err != nil {
				return err
			}
			if cm.Op != ctlCodec {
				return fmt.Errorf("comm: codec negotiation: unexpected control op %d from rank %d", cm.Op, r)
			}
			if cm.A != fp && mismatch == nil {
				mismatch = fmt.Errorf("comm: codec mismatch: rank %d negotiates fingerprint %.0f, rank 0 runs %q", r, cm.A, c)
			}
		}
		for r := 1; r < m.procs; r++ {
			if err := m.sendControl(r, ctlCodecAck, fp); err != nil {
				return err
			}
		}
		return mismatch
	}
	if err := m.sendControl(0, ctlCodec, fp); err != nil {
		return err
	}
	cm, err := m.recvControl(0)
	if err != nil {
		return err
	}
	if cm.Op != ctlCodecAck || cm.A != fp {
		return fmt.Errorf("comm: codec mismatch: rank 0 acked fingerprint %.0f, rank %d runs %q", cm.A, m.rank, c)
	}
	return nil
}

// Codec implements Fabric.
func (m *Mesh) Codec() Codec { return m.cs.codec }

// CodecSnapshot implements Fabric.
func (m *Mesh) CodecSnapshot() *CodecSnapshot { return m.cs.snapshot() }

// RestoreCodecSnapshot implements Fabric.
func (m *Mesh) RestoreCodecSnapshot(s *CodecSnapshot) error { return m.cs.restore(s) }

// CodecPackedWire returns the actual encoded bytes of the lossy-codec
// messages this rank has produced, in ledger orientation (uplink → recv,
// the downlink message once per worker → sent; every rank compresses the
// downlink, none sends it). For the bit-packed top-k stream this is the
// data-dependent packed footprint; for every other lossy codec it equals
// the logical ledger. Complete on a one-rank fabric, which encodes every
// message of every round itself; across ranks the per-socket truth lives
// in NetStats.
func (m *Mesh) CodecPackedWire() (recv, sent int64) {
	return m.cs.packedRecv, m.cs.packedSent
}

// ReduceMean implements Fabric.
func (m *Mesh) ReduceMean(dst tensor.Vector, ids []int, view func(worker int) tensor.Vector) error {
	return m.reduce(dst, nil, ids, view, false)
}

// ReduceMeanCodec implements Fabric.
func (m *Mesh) ReduceMeanCodec(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector) error {
	return m.reduce(dst, ref, ids, view, true)
}

// ReduceMeanCodecBuckets implements Fabric: it calls wait once per bucket,
// in descending order, then runs one ReduceMeanCodec round over the whole
// vector.
func (m *Mesh) ReduceMeanCodecBuckets(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector, buckets [][2]int, wait func(bucket int)) error {
	for b := len(buckets) - 1; wait != nil && b >= 0; b-- {
		wait(b)
	}
	return m.ReduceMeanCodec(dst, ref, ids, view)
}

// recvBuf returns rank 0's dim-element staging vector for a remote worker's
// contribution to a gathered round. One buffer per worker, as large as the
// largest round so far, serves rounds of every size — a run alternates
// model-sized rounds with an evaluation's few hundred result rows.
func (m *Mesh) recvBuf(worker, dim int) tensor.Vector {
	if buf := m.recvBufs[worker]; cap(buf) >= dim {
		return buf[:dim]
	}
	buf := tensor.NewVector(dim)
	m.recvBufs[worker] = buf
	return buf
}

// reduce is the round itself (see the comment at the top of the file): it
// picks the route and writes the ledger. ps marks parameter-server traffic,
// which runs through the installed codec and writes the ledger, while a
// diagnostic read (ps false) is always dense and leaves no trace.
// Transport failures surface as typed *PeerError values naming the peer and
// phase of the round; on an elastic mesh a failed peer is instead promoted
// to dead and the mean re-forms over the survivors.
func (m *Mesh) reduce(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector, ps bool) error {
	dense := !ps || m.cs.codec.Nop()
	// SetCodec refuses an elastic mesh; this catches the mesh that turned
	// elastic afterwards.
	if m.Elastic() && !dense {
		return fmt.Errorf("comm: payload codecs require static membership (elastic mesh, codec %q)", m.cs.codec)
	}
	if err := validateReduceArgs(dst, ref); err != nil {
		return err
	}
	var err error
	switch {
	case !dense:
		err = m.exchange(dst, ref, ids, view)
	case m.Elastic():
		err = m.gather(dst, ids, view)
	default:
		err = m.relay(dst, ids, view)
	}
	if err != nil {
		return err
	}
	if ps {
		m.cs.accountCodec(&m.stats, len(ids), m.workers, len(dst), m.cs.round)
		m.cs.round++
	}
	return nil
}

// exchange is the lossy round on a static mesh (see the comment at the top
// of the file).
func (m *Mesh) exchange(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector) error {
	if len(ids) == 0 {
		return fmt.Errorf("comm: reduce over no contributions")
	}
	for _, id := range ids {
		if m.OwnerOf(id) < 0 {
			return fmt.Errorf("comm: reduce id %d is not one of the mesh's %d workers", id, m.workers)
		}
	}
	cs, dim := &m.cs, len(dst)
	if err := cs.applyRestored(dim); err != nil {
		return err
	}
	if ref != nil && len(m.deltaBuf) != dim {
		m.deltaBuf = tensor.NewVector(dim)
	}
	up, down := cs.codec.up(), cs.codec.down()
	sparse := up.kind == CodecTopK
	slots := cs.exchSlots(len(ids), dim, !sparse)
	resid, round := cs.downResid(dim)[:dim], cs.round
	for j, id := range ids {
		if m.OwnerOf(id) != m.rank {
			continue
		}
		s := &slots[j]
		var dec tensor.Vector
		if !sparse {
			dec = s.dense
		}
		msg := codecMsgSrc(view(id), ref, m.deltaBuf)
		roundTrip(up, msg, cs.residFor(id, dim)[:dim], dec, round, &s.msg)
		cs.packedRecv += s.msg.wire
		if err := m.sendCodecMsg(id, &s.msg); err != nil {
			return err
		}
	}
	for j, id := range ids {
		owner := m.OwnerOf(id)
		if owner == m.rank {
			continue
		}
		var err error
		if sparse {
			err = recvSparseEP(meshRx{m}, owner, id, dim, &slots[j].msg)
		} else {
			err = recvCompressedEP(meshRx{m}, owner, id, up, slots[j].dense)
		}
		if err != nil {
			return m.fault("reduce exchange recv", owner, err)
		}
	}
	// The mean joins the downlink residual, and the downlink round trip
	// decodes what every rank applies.
	if sparse {
		foldSparseMean(resid, cs.sparseSum(dim), slots)
	} else {
		m.slots = m.slots[:0]
		for j := range slots {
			m.slots = append(m.slots, slots[j].dense)
		}
		tensor.Average(dst, m.slots)
		resid.Add(dst)
	}
	roundTrip(down, nil, resid, dst, round, &cs.down)
	cs.packedSent += int64(m.workers) * cs.down.wire
	if ref != nil {
		applyDelta(dst, ref)
	}
	return nil
}

// foldSparseMean adds the mean of the slots' top-k messages to resid,
// through sum, which is all +0 on entry and on return. Slot by slot, each
// entry adds its value to its position's running sum, so every position's
// values are summed in slot order from +0; then every entry adds its
// position's sum times 1/len(slots) to resid and zeroes it, so a position
// that several messages carry is added once in full and then +0. That is
// tensor.Average over the zero-filled messages followed by TopKSelectAdd's
// mean + resid[p], bit for bit: neither a running sum nor a live residual is
// ever −0, so every +0 the dense fold would add is an identity.
func foldSparseMean(resid, sum tensor.Vector, slots []exchSlot) {
	for i := range slots {
		m := &slots[i].msg
		for e, p := range m.idx {
			sum[p] += m.vals[e]
		}
	}
	inv := 1 / float64(len(slots))
	for i := range slots {
		for _, p := range slots[i].msg.idx {
			// The conversion rounds the product before the add: no fused
			// multiply-add, like Average's scaling pass followed by the fold.
			resid[p] = float64(sum[p]*inv) + resid[p]
			sum[p] = 0
		}
	}
}

// sendCodecMsg streams one compact message, tagged worker, to every peer:
// each chunk is encoded once into the mesh's scratch and sent down every
// link from the mesh's one frame, so a send allocates nothing. A one-rank
// mesh has nobody to send to and encodes nothing.
func (m *Mesh) sendCodecMsg(worker int, msg *compactMsg) error {
	if m.procs == 1 {
		return nil
	}
	f := &m.out
	for c, n := 0, msg.chunks(); c < n; c++ {
		m.scratch = msg.appendChunk(m.scratch[:0], c)
		*f = Frame{Type: msg.kind.msgType(), Worker: int32(worker), Seq: uint32(c), Payload: m.scratch}
		if c == n-1 {
			f.Flags = FlagLast
		}
		for r := 0; r < m.procs; r++ {
			if r == m.rank {
				continue
			}
			if err := m.ep.Send(r, f); err != nil {
				return m.fault("reduce exchange send", r, err)
			}
		}
	}
	return nil
}

// gather is the dense round on an elastic mesh (see the comment at the top
// of the file).
func (m *Mesh) gather(dst tensor.Vector, ids []int, view func(worker int) tensor.Vector) error {
	if m.rank != 0 {
		for _, id := range ids {
			if !m.Hosts(id) {
				continue
			}
			var err error
			if m.scratch, err = sendTensorEP(m.ep, 0, id, view(id), m.scratch); err != nil {
				return m.fault("reduce push", 0, err)
			}
		}
		if err := recvTensorEP(meshRx{m}, 0, -1, dst); err != nil {
			return m.fault("reduce pull", 0, err)
		}
		return nil
	}
	m.slots = m.slots[:0]
	for _, id := range ids {
		owner := m.OwnerOf(id)
		switch {
		case owner < 0:
			// Dead rank's worker, not yet adopted: the mean re-forms over
			// the survivors' contributions.
			continue
		case owner == 0:
			m.slots = append(m.slots, view(id))
			continue
		}
		slot := m.recvBuf(id, len(dst))
		if err := recvTensorEP(meshRx{m}, owner, id, slot); err != nil {
			if m.elasticSkip(owner, err) {
				continue
			}
			return m.fault("reduce gather", owner, err)
		}
		m.slots = append(m.slots, slot)
	}
	tensor.Average(dst, m.slots)
	m.pushView()
	for r := 1; r < m.procs; r++ {
		if !m.RankAlive(r) {
			continue
		}
		var err error
		if m.scratch, err = sendTensorEP(m.ep, r, -1, dst, m.scratch); err != nil {
			if m.elasticSkip(r, err) {
				continue
			}
			return m.fault("reduce broadcast", r, err)
		}
	}
	return nil
}

// relayRun is ids[lo:hi], a run of consecutive contributions one rank hosts.
type relayRun struct{ rank, lo, hi int }

// cutRuns cuts ids into m.runs.
func (m *Mesh) cutRuns(ids []int) error {
	m.runs = m.runs[:0]
	for i, id := range ids {
		r := m.OwnerOf(id)
		if r < 0 {
			return fmt.Errorf("comm: reduce id %d is not one of the mesh's %d workers", id, m.workers)
		}
		if n := len(m.runs); n > 0 && m.runs[n-1].rank == r {
			m.runs[n-1].hi = i + 1
		} else {
			m.runs = append(m.runs, relayRun{rank: r, lo: i, hi: i + 1})
		}
	}
	if len(m.runs) == 0 {
		return fmt.Errorf("comm: reduce over no contributions")
	}
	return nil
}

// relay is the dense round on a static mesh (see the comment at the top of
// the file).
func (m *Mesh) relay(dst tensor.Vector, ids []int, view func(worker int) tensor.Vector) error {
	if err := m.cutRuns(ids); err != nil {
		return err
	}
	dim, win := len(dst), len(dst)
	if m.procs > 1 {
		win = ChunkElems
	}
	windows := (dim + win - 1) / win
	last := m.runs[len(m.runs)-1].rank
	pulled := 0 // mean windows this rank has received from last
	for c := 0; c < windows; c++ {
		lo, hi := c*win, min((c+1)*win, dim)
		d := dst[lo:hi]
		for j, run := range m.runs {
			if run.rank != m.rank {
				continue
			}
			first, final := j == 0, j == len(m.runs)-1
			if !first {
				prev := m.runs[j-1].rank
				// last sent mean windows up to c−1 ahead of this partial, and
				// a link delivers in send order: take them first.
				for ; prev == last && pulled < c; pulled++ {
					if err := m.pullWindow(last, dst, win, pulled, windows); err != nil {
						return err
					}
				}
				if err := m.recvWindow(prev, ids[run.lo], c, windows, d); err != nil {
					return m.fault("reduce relay recv", prev, err)
				}
			}
			m.slots = m.slots[:0]
			for _, id := range ids[run.lo:run.hi] {
				m.slots = append(m.slots, view(id)[lo:hi])
			}
			switch {
			case first && final:
				tensor.Average(d, m.slots)
			case first:
				d.Zero()
				tensor.Accumulate(d, m.slots)
			default:
				tensor.Accumulate(d, m.slots)
			}
			if !final {
				next := m.runs[j+1]
				if err := m.sendWindow(next.rank, ids[next.lo], c, windows, d); err != nil {
					return m.fault("reduce relay send", next.rank, err)
				}
				continue
			}
			if !first {
				d.Scale(1 / float64(len(ids)))
			}
			for r := 0; r < m.procs; r++ {
				if r == m.rank {
					continue
				}
				if err := m.sendWindow(r, -1, c, windows, d); err != nil {
					return m.fault("reduce broadcast", r, err)
				}
			}
		}
	}
	for ; m.rank != last && pulled < windows; pulled++ {
		if err := m.pullWindow(last, dst, win, pulled, windows); err != nil {
			return err
		}
	}
	return nil
}

// pullWindow receives mean window c of dst from the last run's rank.
func (m *Mesh) pullWindow(from int, dst tensor.Vector, win, c, windows int) error {
	lo := c * win
	if err := m.recvWindow(from, -1, c, windows, dst[lo:min(lo+win, len(dst))]); err != nil {
		return m.fault("reduce pull", from, err)
	}
	return nil
}

// sendWindow sends v as window c of a windows-long stream tagged tag: one
// dense chunk frame, numbered c, the last one flagged — chunk c of the frame
// sequence sendTensorEP would send, under the relay's own tag. The frame is
// the mesh's, so a send allocates nothing.
func (m *Mesh) sendWindow(to, tag, c, windows int, v tensor.Vector) error {
	f := &m.out
	*f = Frame{Type: MsgTensorChunk, Worker: int32(tag), Seq: uint32(c)}
	if c == windows-1 {
		f.Flags = FlagLast
	}
	f.Payload, m.scratch = chunkPayload(v, m.scratch)
	err := m.ep.Send(to, f)
	f.Payload = nil // do not keep the caller's memory reachable
	return err
}

// recvWindow receives window c of a windows-long stream tagged tag from a
// peer into dst, checking the frame's type, tag, number, last flag and size.
// The frame goes back to its transport either way.
func (m *Mesh) recvWindow(from, tag, c, windows int, dst tensor.Vector) error {
	f, err := m.recvFrom(from)
	if err != nil {
		return err
	}
	err = checkChunk(f, MsgTensorChunk, from, tag, uint32(c))
	if err == nil && (f.Flags&FlagLast != 0) != (c == windows-1) {
		err = fmt.Errorf("comm: chunk %d of %d from rank %d flagged last=%v", c, windows, from, f.Flags&FlagLast != 0)
	}
	if err == nil {
		err = tensor.DecodeVector(dst, f.Payload)
	}
	f.release()
	return err
}
