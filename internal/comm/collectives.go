package comm

import (
	"fmt"

	"selsync/internal/tensor"
)

// The dense tensor stream over a bare Endpoint: the two frame primitives
// the gathered reduce round (reduce.go) is built from, and the header check
// every received stream chunk passes, the relay's windows included.

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
		f.Payload, scratch = chunkPayload(v[lo:hi], scratch)
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

// chunkPayload returns the payload of a chunk holding v: v's own memory
// where the host's memory layout is the wire layout, else v encoded into
// scratch, which it returns grown.
func chunkPayload(v tensor.Vector, scratch []byte) (payload, grown []byte) {
	if b, ok := tensor.WireView(v); ok {
		return b, scratch
	}
	scratch = tensor.AppendVector(scratch[:0], v)
	return scratch, scratch
}

// recver is the minimal receive surface the reassembly helper needs; an
// Endpoint satisfies it, and so does the Mesh's view-absorbing wrapper.
type recver interface {
	Recv(from int) (*Frame, error)
}

// checkChunk validates one stream-chunk frame's header: its type, worker
// tag and place in the sequence. A stream that belongs to no worker — a
// mean — is tagged −1, and a contribution or partial sum arriving where one
// is due is refused like any other mismatch.
func checkChunk(f *Frame, want MsgType, from, worker int, seq uint32) error {
	if f.Type != want {
		return fmt.Errorf("comm: expected chunk type %d from rank %d, got type %d", want, from, f.Type)
	}
	if f.Worker != int32(worker) {
		return fmt.Errorf("comm: chunk from rank %d tagged %d, want %d", from, f.Worker, worker)
	}
	if f.Seq != seq {
		return fmt.Errorf("comm: chunk seq %d, want %d", f.Seq, seq)
	}
	return nil
}

// recvTensorEP reassembles one chunked tensor from a peer into dst,
// validating the worker tag, chunk sequence and total size. Each chunk
// frame is handed back to its transport once decoded or rejected.
func recvTensorEP(ep recver, from, worker int, dst tensor.Vector) error {
	off := 0
	for seq := uint32(0); ; seq++ {
		f, err := ep.Recv(from)
		if err != nil {
			return err
		}
		err = checkChunk(f, MsgTensorChunk, from, worker, seq)
		n := len(f.Payload) / 8
		if err == nil && off+n > len(dst) {
			err = fmt.Errorf("comm: tensor stream overflows %d-element destination", len(dst))
		}
		if err == nil {
			err = tensor.DecodeVector(dst[off:off+n], f.Payload)
		}
		last := f.Flags&FlagLast != 0
		f.release()
		if err != nil {
			return err
		}
		off += n
		if last {
			if off != len(dst) {
				return fmt.Errorf("comm: tensor stream ended at %d of %d elements", off, len(dst))
			}
			return nil
		}
	}
}
