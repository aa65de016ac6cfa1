package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Wire format (version 1). Every message on every transport is one frame:
//
//	offset  size  field
//	0       4     magic  0x53454C31 ("SEL1")
//	4       1     version (1)
//	5       1     type (MsgType)
//	6       2     flags (bit 0: last chunk of a tensor stream)
//	8       4     worker id the payload belongs to (int32; -1 = none)
//	12      4     seq (chunk index within a tensor stream, else 0)
//	16      4     payload length in bytes
//	20      n     payload
//
// Tensor payloads are little-endian float64 words (tensor.AppendVector) and
// are chunked into at most ChunkElems elements per frame so multi-megabyte
// models stream through bounded buffers. Flag payloads pack one bit per
// worker. Control payloads are [op byte][a float64][b float64].
const (
	Magic      = 0x53454C31
	Version    = 1
	HeaderSize = 20
	// MaxPayload bounds a frame payload; DecodeFrame rejects anything
	// larger, so a malformed length field cannot trigger a huge read.
	MaxPayload = 1 << 22
	// ChunkElems is the tensor streaming granularity: 32Ki float64s =
	// 256 KiB payloads.
	ChunkElems = 32 * 1024
)

// MsgType labels a frame.
type MsgType uint8

const (
	// MsgHello is the connection handshake; the worker field carries the
	// dialer's rank.
	MsgHello MsgType = 1
	// MsgTensorChunk carries one chunk of a streamed tensor.
	MsgTensorChunk MsgType = 2
	// MsgFlags carries packed one-bit-per-worker SelSync significance
	// flags.
	MsgFlags MsgType = 3
	// MsgScalar carries one float64 (clock reductions).
	MsgScalar MsgType = 4
	// MsgControl carries a control op byte plus one float64 argument.
	MsgControl MsgType = 5
	// MsgHeartbeat is a liveness beacon; the worker field carries the
	// sender's rank. Transports consume heartbeats at the read loop (they
	// refresh the peer's last-heard clock) and never deliver them to
	// collective receives.
	MsgHeartbeat MsgType = 6
	// MsgView carries an epoch-numbered membership view (see View): 8
	// bytes of epoch followed by packed per-rank alive bits. Rank 0
	// piggybacks it in front of collective broadcasts; receivers absorb it
	// before the data frame.
	MsgView MsgType = 7
	// MsgBlob carries one chunk of an opaque byte stream (the hot-rejoin
	// state transfer: a checkpoint encoded by the train layer's codec),
	// with the same Seq/FlagLast chunking as tensor streams.
	MsgBlob MsgType = 8
	// MsgSparseChunk carries one chunk of a top-k sparsified tensor
	// message, bit-packed: a little-endian uint32 entry count, then one
	// uvarint index gap per entry (gap = position − previous position − 1,
	// with the previous position threaded across the chunks of a message,
	// initially −1), then one little-endian float64 value per entry. The
	// decoded positions are absolute, strictly ascending indices into the
	// message's vector.
	MsgSparseChunk MsgType = 9
	// MsgQuantChunk carries one chunk of a linearly quantized tensor
	// message: [bits u8][lo f64][scale f64] then one level per element
	// (1 byte for 8-bit, 2 little-endian bytes for 16-bit). Each chunk
	// covers the next ChunkElems-sized window of the message and is
	// quantized independently, so lo/scale adapt per chunk.
	MsgQuantChunk MsgType = 10
	// MsgRangeChunk carries one contiguous dense block of a partially
	// shared tensor message: [start u32] then float64 values for positions
	// start, start+1, … within the message's vector.
	MsgRangeChunk MsgType = 11
	// MsgServeReq carries one serve-protocol request (JSON-encoded; see
	// internal/serve) from a client to the selsync-serve daemon.
	MsgServeReq MsgType = 12
	// MsgServeResp carries one serve-protocol response (JSON-encoded)
	// from the daemon back to a client.
	MsgServeResp MsgType = 13
	// MsgServeEvent carries one job event (JSON-encoded) on a serve event
	// subscription stream; FlagLast marks the job's final event.
	MsgServeEvent MsgType = 14
)

func (t MsgType) valid() bool { return t >= MsgHello && t <= MsgServeEvent }

// streamChunk reports whether t is a chunk of a tensor stream, dense or
// codec-encoded. Those are the frames the stream reassemblers
// (recvTensorEP, recvCompressedEP) consume and hand back, so they are the
// ones transports draw from their framePool.
func (t MsgType) streamChunk() bool {
	switch t {
	case MsgTensorChunk, MsgSparseChunk, MsgQuantChunk, MsgRangeChunk:
		return true
	}
	return false
}

// FlagLast marks the final chunk of a tensor stream.
const FlagLast uint16 = 1

// Control ops carried by MsgControl frames.
const (
	// ctlBye / ctlByeAck implement the close barrier: every rank drains
	// its peers before any socket is torn down.
	ctlBye    uint8 = 4
	ctlByeAck uint8 = 5
	// ctlCodec / ctlCodecAck negotiate the payload codec at SetCodec time:
	// every rank sends its codec fingerprint (the argument) to rank 0, which
	// verifies unanimity and acks with its own. A mismatch is a
	// configuration error surfaced before any compressed collective runs.
	ctlCodec    uint8 = 6
	ctlCodecAck uint8 = 7
)

// Frame is one decoded wire message.
//
// Ownership of Payload: a frame passed to Endpoint.Send stays the caller's,
// and the transport is done with Payload when Send returns (it may be the
// memory of a live tensor). A frame returned by Endpoint.Recv belongs to
// the receiver, Payload included, until the receiver drops it or — inside
// this package — hands it back with release, after which neither the frame
// nor its payload may be touched: the transport reuses both for a later
// receive.
type Frame struct {
	Type    MsgType
	Flags   uint16
	Worker  int32
	Seq     uint32
	Payload []byte

	// home is the pool a received stream-chunk frame was drawn from, nil
	// for every other frame. It travels with the frame, so recycling works
	// the same through any Endpoint decorator that passes frames along.
	home *framePool
}

// framePool recycles the frames, and with them the payload buffers, of
// received tensor-stream chunks: in steady state a transport's receive path
// allocates nothing. One pool per receiving endpoint; frames a receiver
// never releases are simply garbage collected.
type framePool struct {
	mu   sync.Mutex
	free []*Frame // LIFO: the buffer released last is the one still in cache
}

// framePoolCap bounds the frames a pool keeps: 64 full chunks are 16 MiB,
// two ranks' worth of a 1M-parameter tensor in flight. Beyond that,
// released frames go to the garbage collector as they did before pooling.
const framePoolCap = 64

// get returns a frame with an n-byte payload of unspecified content.
func (p *framePool) get(n int) *Frame {
	var f *Frame
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		f, p.free = p.free[k-1], p.free[:k-1]
	}
	p.mu.Unlock()
	if f == nil || cap(f.Payload) < n {
		// A buffer that is too small (the short last chunk of an earlier
		// stream) is dropped, so the pool converges on full-size buffers.
		f = &Frame{Payload: make([]byte, n)}
	}
	f.Payload = f.Payload[:n]
	f.home = p
	return f
}

// recvFrame returns the frame a transport delivers a type-t message with an
// n-byte payload in: pooled for stream chunks, freshly allocated otherwise.
// The caller fills Payload and the remaining header fields.
func (p *framePool) recvFrame(t MsgType, n int) *Frame {
	var f *Frame
	if t.streamChunk() {
		f = p.get(n)
	} else {
		f = new(Frame)
		if n > 0 {
			f.Payload = make([]byte, n)
		}
	}
	f.Type = t
	return f
}

// release hands a received frame back to the pool it came from; a no-op for
// unpooled frames. The caller must be done with f and f.Payload.
func (f *Frame) release() {
	p := f.home
	if p == nil {
		return
	}
	f.home = nil
	p.mu.Lock()
	if len(p.free) < framePoolCap {
		p.free = append(p.free, f)
	}
	p.mu.Unlock()
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It panics if the payload exceeds MaxPayload (a caller bug, not a
// wire condition).
func AppendFrame(dst []byte, f *Frame) []byte {
	if len(f.Payload) > MaxPayload {
		panic(fmt.Sprintf("comm: frame payload %d exceeds MaxPayload", len(f.Payload)))
	}
	var hdr [HeaderSize]byte
	putHeader(hdr[:], f, len(f.Payload))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

func putHeader(hdr []byte, f *Frame, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = Version
	hdr[5] = byte(f.Type)
	binary.LittleEndian.PutUint16(hdr[6:], f.Flags)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.Worker))
	binary.LittleEndian.PutUint32(hdr[12:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(payloadLen))
}

// parseHeader validates a wire header and returns the frame metadata plus
// the payload length. It never panics: every malformed field maps to an
// error.
func parseHeader(hdr []byte) (f Frame, payloadLen int, err error) {
	if len(hdr) < HeaderSize {
		return f, 0, fmt.Errorf("comm: short header: %d bytes", len(hdr))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return f, 0, fmt.Errorf("comm: bad magic %#x", m)
	}
	if v := hdr[4]; v != Version {
		return f, 0, fmt.Errorf("comm: unsupported wire version %d", v)
	}
	f.Type = MsgType(hdr[5])
	if !f.Type.valid() {
		return f, 0, fmt.Errorf("comm: unknown frame type %d", hdr[5])
	}
	f.Flags = binary.LittleEndian.Uint16(hdr[6:])
	f.Worker = int32(binary.LittleEndian.Uint32(hdr[8:]))
	f.Seq = binary.LittleEndian.Uint32(hdr[12:])
	n := binary.LittleEndian.Uint32(hdr[16:])
	if n > MaxPayload {
		return f, 0, fmt.Errorf("comm: payload length %d exceeds MaxPayload", n)
	}
	return f, int(n), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame,
// the number of bytes consumed, and an error for any malformed input. The
// returned payload aliases b. It never panics — the fuzz target
// FuzzDecodeFrame holds it to that.
func DecodeFrame(b []byte) (Frame, int, error) {
	f, n, err := parseHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < HeaderSize+n {
		return Frame{}, 0, fmt.Errorf("comm: truncated frame: have %d payload bytes, want %d", len(b)-HeaderSize, n)
	}
	f.Payload = b[HeaderSize : HeaderSize+n]
	return f, HeaderSize + n, nil
}

// TensorChunks returns how many frames a dim-element tensor streams as.
func TensorChunks(dim int) int {
	if dim <= 0 {
		return 1
	}
	return (dim + ChunkElems - 1) / ChunkElems
}

// TensorWireBytes returns the exact wire footprint of one dim-element
// tensor message: chunk headers plus the float64 payload. Both backends
// account traffic with this, so loopback and TCP report identical byte
// counts for identical collective sequences.
func TensorWireBytes(dim int) int64 {
	return int64(TensorChunks(dim)*HeaderSize) + int64(dim)*8
}

// FlagsWireBytes returns the logical wire footprint of one SelSync flags
// round among n workers: every worker pushes a one-byte flag frame and
// pulls the packed n-bit vector.
func FlagsWireBytes(n int) int64 {
	packed := (n + 7) / 8
	return int64(n)*(HeaderSize+1) + int64(n)*int64(HeaderSize+packed)
}

// packBits packs bools into dst (little-endian bit order), returning the
// extended slice.
func packBits(dst []byte, bits []bool) []byte {
	n := (len(bits) + 7) / 8
	off := len(dst)
	dst = append(dst, make([]byte, n)...)
	for i, b := range bits {
		if b {
			dst[off+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// unpackBits unpacks len(bits) bools from b. It errors (never panics) when
// b is too short.
func unpackBits(bits []bool, b []byte) error {
	if len(b)*8 < len(bits) {
		return fmt.Errorf("comm: flags payload %d bytes too short for %d bits", len(b), len(bits))
	}
	for i := range bits {
		bits[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return nil
}

func putScalar(dst []byte, x float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
	return append(dst, buf[:]...)
}

func getScalar(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("comm: scalar payload is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}
