package comm

import (
	"fmt"

	"selsync/internal/tensor"
)

// Rank-level collectives over a bare Endpoint: one vector per rank. The
// Mesh fabric wraps the same frame primitives with worker-id bookkeeping;
// these are the building blocks for tools, tests and topologies that don't
// need the worker mapping.

// sendTensorEP streams v to a peer in chunked frames. Where the host's
// memory layout is the wire layout each payload is the chunk's own memory
// (Send is done with it on return); elsewhere chunks are encoded into
// scratch. It returns the (possibly grown) scratch.
func sendTensorEP(ep Endpoint, to, worker int, v tensor.Vector, scratch []byte) ([]byte, error) {
	// One frame for the whole stream: it escapes through Send, so a frame
	// per chunk would be a heap allocation per chunk.
	f := Frame{Type: MsgTensorChunk, Worker: int32(worker)}
	for lo := 0; ; lo += ChunkElems {
		hi := min(lo+ChunkElems, len(v))
		var ok bool
		if f.Payload, ok = tensor.WireView(v[lo:hi]); !ok {
			scratch = tensor.AppendVector(scratch[:0], v[lo:hi])
			f.Payload = scratch
		}
		if hi == len(v) {
			f.Flags |= FlagLast
		}
		if err := ep.Send(to, &f); err != nil {
			return scratch, err
		}
		if hi == len(v) {
			return scratch, nil
		}
		f.Seq++
	}
}

// recver is the minimal receive surface the reassembly helper needs; an
// Endpoint satisfies it, and so does the Mesh's view-absorbing wrapper.
type recver interface {
	Recv(from int) (*Frame, error)
}

// recvTensorEP reassembles one chunked tensor from a peer into dst,
// validating the worker tag (when non-negative), chunk sequence and total
// size. Each chunk frame is handed back to its transport once decoded.
func recvTensorEP(ep recver, from, worker int, dst tensor.Vector) error {
	off := 0
	for seq := uint32(0); ; seq++ {
		f, err := ep.Recv(from)
		if err != nil {
			return err
		}
		if f.Type != MsgTensorChunk {
			return fmt.Errorf("comm: expected tensor chunk from rank %d, got type %d", from, f.Type)
		}
		if worker >= 0 && f.Worker != int32(worker) {
			return fmt.Errorf("comm: tensor chunk for worker %d, want %d", f.Worker, worker)
		}
		if f.Seq != seq {
			return fmt.Errorf("comm: tensor chunk seq %d, want %d", f.Seq, seq)
		}
		n := len(f.Payload) / 8
		if off+n > len(dst) {
			return fmt.Errorf("comm: tensor stream overflows %d-element destination", len(dst))
		}
		if err := tensor.DecodeVector(dst[off:off+n], f.Payload); err != nil {
			return err
		}
		off += n
		last := f.Flags&FlagLast != 0
		f.release()
		if last {
			if off != len(dst) {
				return fmt.Errorf("comm: tensor stream ended at %d of %d elements", off, len(dst))
			}
			return nil
		}
	}
}

// BroadcastTensor copies root's v into every rank's v.
func BroadcastTensor(ep Endpoint, root int, v tensor.Vector) error {
	if ep.Procs() == 1 {
		return nil
	}
	if ep.Rank() == root {
		var scratch []byte
		var err error
		for r := 0; r < ep.Procs(); r++ {
			if r == root {
				continue
			}
			if scratch, err = sendTensorEP(ep, r, -1, v, scratch); err != nil {
				return peerErr("broadcast send", r, err)
			}
		}
		return nil
	}
	if err := recvTensorEP(ep, root, -1, v); err != nil {
		return peerErr("broadcast recv", root, err)
	}
	return nil
}

// PushPullMean is the parameter-server round at rank granularity: every
// rank pushes contrib to root, root averages the contributions in rank
// order (the same deterministic tensor.Average fold the cluster uses) and
// every rank pulls the mean into dst. contrib and dst may alias.
func PushPullMean(ep Endpoint, root int, dst, contrib tensor.Vector) error {
	if ep.Procs() == 1 {
		if &dst[0] != &contrib[0] {
			dst.CopyFrom(contrib)
		}
		return nil
	}
	if ep.Rank() == root {
		slots := make([]tensor.Vector, ep.Procs())
		for r := range slots {
			if r == root {
				slots[r] = contrib
				continue
			}
			buf := tensor.NewVector(len(dst))
			if err := recvTensorEP(ep, r, -1, buf); err != nil {
				return peerErr("push-pull gather", r, err)
			}
			slots[r] = buf
		}
		tensor.Average(dst, slots)
		return BroadcastTensor(ep, root, dst)
	}
	if _, err := sendTensorEP(ep, root, -1, contrib, nil); err != nil {
		return peerErr("push-pull push", root, err)
	}
	if err := recvTensorEP(ep, root, -1, dst); err != nil {
		return peerErr("push-pull pull", root, err)
	}
	return nil
}

// PushPullMeanOver is PushPullMean restricted to a member set: only ranks
// with members[rank] true participate, and root averages exactly the live
// contributions (the quorum-weighted mean a degraded view induces). Every
// member must call it with an identical members slice; non-members must
// not call it at all. root must be a member.
func PushPullMeanOver(ep Endpoint, root int, members []bool, dst, contrib tensor.Vector) error {
	if len(members) != ep.Procs() {
		return fmt.Errorf("comm: members length %d, want %d", len(members), ep.Procs())
	}
	if !members[root] {
		return fmt.Errorf("comm: push-pull root %d is not a member", root)
	}
	live := 0
	for _, m := range members {
		if m {
			live++
		}
	}
	if live == 1 {
		if &dst[0] != &contrib[0] {
			dst.CopyFrom(contrib)
		}
		return nil
	}
	if ep.Rank() == root {
		slots := make([]tensor.Vector, 0, live)
		for r := 0; r < ep.Procs(); r++ {
			if !members[r] {
				continue
			}
			if r == root {
				slots = append(slots, contrib)
				continue
			}
			buf := tensor.NewVector(len(dst))
			if err := recvTensorEP(ep, r, -1, buf); err != nil {
				return peerErr("push-pull gather", r, err)
			}
			slots = append(slots, buf)
		}
		tensor.Average(dst, slots)
		var scratch []byte
		var err error
		for r := 0; r < ep.Procs(); r++ {
			if r == root || !members[r] {
				continue
			}
			if scratch, err = sendTensorEP(ep, r, -1, dst, scratch); err != nil {
				return peerErr("push-pull fanout", r, err)
			}
		}
		return nil
	}
	if _, err := sendTensorEP(ep, root, -1, contrib, nil); err != nil {
		return peerErr("push-pull push", root, err)
	}
	if err := recvTensorEP(ep, root, -1, dst); err != nil {
		return peerErr("push-pull pull", root, err)
	}
	return nil
}

// RingAllReduceMean averages v across all ranks in place with the
// bandwidth-optimal ring collective: a reduce-scatter pass leaves each
// rank owning one fully reduced segment, an allgather pass circulates the
// reduced segments, then every rank scales by 1/P. Each rank moves
// 2·(P−1)/P of the vector — the cost model simnet.RingAllReduce prices.
//
// The per-element addition order depends on ring position, so the result
// is deterministic but not bitwise identical to PushPullMean's flat fold —
// the reason the cluster's bit-stability path stays on the PS collective.
func RingAllReduceMean(ep Endpoint, v tensor.Vector) error {
	p := ep.Procs()
	if p == 1 {
		return nil
	}
	rank := ep.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	seg := func(i int) (int, int) {
		i = ((i % p) + p) % p
		return i * len(v) / p, (i + 1) * len(v) / p
	}
	scratch := tensor.NewVector(len(v)/p + 1)
	var enc []byte
	var err error

	// Reduce-scatter: after step s, the segment (rank−s−1) accumulates the
	// partial sums of s+2 ranks; after P−1 steps rank r owns the full sum
	// of segment r+1.
	for s := 0; s < p-1; s++ {
		slo, shi := seg(rank - s)
		if enc, err = sendTensorEP(ep, next, -1, v[slo:shi], enc); err != nil {
			return peerErr("ring reduce send", next, err)
		}
		rlo, rhi := seg(rank - s - 1)
		in := scratch[:rhi-rlo]
		if err := recvTensorEP(ep, prev, -1, in); err != nil {
			return peerErr("ring reduce recv", prev, err)
		}
		v[rlo:rhi].Add(in)
	}
	// Allgather: circulate the reduced segments.
	for s := 0; s < p-1; s++ {
		slo, shi := seg(rank + 1 - s)
		if enc, err = sendTensorEP(ep, next, -1, v[slo:shi], enc); err != nil {
			return peerErr("ring gather send", next, err)
		}
		rlo, rhi := seg(rank - s)
		if err := recvTensorEP(ep, prev, -1, v[rlo:rhi]); err != nil {
			return peerErr("ring gather recv", prev, err)
		}
	}
	v.Scale(1 / float64(p))
	return nil
}

// RingAllReduceMeanOver re-stitches the ring over a member subset and
// averages v across exactly those ranks: dead ranks are spliced out, the
// survivors renumber themselves by membership order and run the ordinary
// ring passes with the shrunken ring size. Every member must call it with
// an identical members slice; non-members must not call it. The caller's
// rank must be a member.
func RingAllReduceMeanOver(ep Endpoint, members []bool, v tensor.Vector) error {
	if len(members) != ep.Procs() {
		return fmt.Errorf("comm: members length %d, want %d", len(members), ep.Procs())
	}
	ring := make([]int, 0, ep.Procs())
	pos := -1
	for r, m := range members {
		if !m {
			continue
		}
		if r == ep.Rank() {
			pos = len(ring)
		}
		ring = append(ring, r)
	}
	if pos < 0 {
		return fmt.Errorf("comm: rank %d is not a ring member", ep.Rank())
	}
	p := len(ring)
	if p == 1 {
		return nil
	}
	next := ring[(pos+1)%p]
	prev := ring[(pos-1+p)%p]
	seg := func(i int) (int, int) {
		i = ((i % p) + p) % p
		return i * len(v) / p, (i + 1) * len(v) / p
	}
	scratch := tensor.NewVector(len(v)/p + 1)
	var enc []byte
	var err error

	for s := 0; s < p-1; s++ {
		slo, shi := seg(pos - s)
		if enc, err = sendTensorEP(ep, next, -1, v[slo:shi], enc); err != nil {
			return peerErr("ring reduce send", next, err)
		}
		rlo, rhi := seg(pos - s - 1)
		in := scratch[:rhi-rlo]
		if err := recvTensorEP(ep, prev, -1, in); err != nil {
			return peerErr("ring reduce recv", prev, err)
		}
		v[rlo:rhi].Add(in)
	}
	for s := 0; s < p-1; s++ {
		slo, shi := seg(pos + 1 - s)
		if enc, err = sendTensorEP(ep, next, -1, v[slo:shi], enc); err != nil {
			return peerErr("ring gather send", next, err)
		}
		rlo, rhi := seg(pos - s)
		if err := recvTensorEP(ep, prev, -1, v[rlo:rhi]); err != nil {
			return peerErr("ring gather recv", prev, err)
		}
	}
	v.Scale(1 / float64(p))
	return nil
}
