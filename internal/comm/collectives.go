package comm

import (
	"fmt"

	"selsync/internal/tensor"
)

// The dense tensor stream over a bare Endpoint: the two frame primitives
// every Mesh collective (reduce.go) and the SSP point-to-point path are
// built from.

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
