package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"selsync/internal/tensor"
)

// Per-chunk payload layout overheads (beyond the frame header).
const (
	// quantChunkOverhead: [bits u8][lo f64][scale f64] before the levels.
	quantChunkOverhead = 17
	// rangeChunkOverhead: [start u32] before the dense values.
	rangeChunkOverhead = 4
	// sparseChunkOverhead: [count u32] before the packed gaps and values.
	sparseChunkOverhead = 4
	// sparseNominalEntryBytes is the canonical (unpacked) footprint of one
	// sparse entry — one uint32 position + one float64 value — which the
	// logical traffic ledger still charges: the packed encoding's varint
	// gaps are data-dependent, and the ledger must stay a pure, rank- and
	// backend-invariant function of codec, dimension and round. The actual
	// packed bytes are tracked separately (PackedSparseWireBytes,
	// Mesh.CodecPackedWire).
	sparseNominalEntryBytes = 12
)

// compactMsg is the in-memory form of one compressed tensor message,
// produced by codecState.roundTrip and streamed by sendCompressedEP. Its
// slices are owned by the codecState and valid until the next roundTrip.
type compactMsg struct {
	kind CodecKind
	dim  int
	// Top-k: positions (ascending) and exact values.
	idx  []uint32
	vals []float64
	// Quantized: width, levels for the whole message, and per-chunk
	// (lo, scale) pairs in chunk order.
	bits        int
	q           []byte
	los, scales []float64
	// Partial: the block [start, start+len(vals)) with values in vals.
	start int
	// wire is the message's exact footprint (headers + payload) under its
	// chunked encoding — what sendCompressedEP emits. For every kind but
	// top-k that is the ledger formula; for top-k it is the packed
	// (data-dependent) size, PackedSparseWireBytes(idx).
	wire int64
}

// codecState is the per-fabric compression engine: the negotiated codec,
// the shared round counter, and the error-feedback residuals (one
// full-dimension accumulator per hosted worker for the uplink, one for
// the downlink on the averaging rank). Every Mesh embeds one.
type codecState struct {
	codec Codec
	round uint64
	// resid maps global worker id → uplink error-feedback accumulator.
	resid map[int]tensor.Vector
	// residDown is the downlink accumulator (averaging rank only).
	residDown tensor.Vector
	msg       compactMsg
	// packedRecv / packedSent track the actual encoded bytes of the codec
	// messages this rank produced under a lossy codec, in ledger orientation
	// (uplink messages → Recv, downlink fan-out → Sent). Complete on a
	// one-rank fabric, which encodes every message of every round;
	// diagnostic only — the logical ledger stays the pure wireBytes formula.
	packedRecv, packedSent int64
	// restored holds a snapshot installed before the model dimension is
	// known; it is applied lazily at the first collective.
	restored *CodecSnapshot
}

// residFor returns (allocating on first use) the uplink residual for a
// worker id at the given model dimension.
func (cs *codecState) residFor(id, dim int) tensor.Vector {
	if cs.resid == nil {
		cs.resid = make(map[int]tensor.Vector)
	}
	r, ok := cs.resid[id]
	if !ok {
		r = tensor.NewVector(dim)
		cs.resid[id] = r
	}
	return r
}

func (cs *codecState) downResid(dim int) tensor.Vector {
	if cs.residDown == nil {
		cs.residDown = tensor.NewVector(dim)
	}
	return cs.residDown
}

// applyRestored installs a lazily held snapshot once dim is known,
// validating residual lengths.
func (cs *codecState) applyRestored(dim int) error {
	s := cs.restored
	if s == nil {
		return nil
	}
	cs.restored = nil
	cs.round = s.Round
	for _, wr := range s.Residuals {
		if len(wr.V) != dim {
			return fmt.Errorf("comm: codec snapshot residual for worker %d has %d elements, want %d", wr.ID, len(wr.V), dim)
		}
		r := cs.residFor(wr.ID, dim)
		copy(r, wr.V)
	}
	if s.Down != nil {
		if len(s.Down) != dim {
			return fmt.Errorf("comm: codec snapshot downlink residual has %d elements, want %d", len(s.Down), dim)
		}
		copy(cs.downResid(dim), s.Down)
	}
	return nil
}

// snapshot captures the error-feedback state (see CodecSnapshot).
func (cs *codecState) snapshot() *CodecSnapshot {
	if cs.codec.Nop() {
		return nil
	}
	s := &CodecSnapshot{Spec: cs.codec.String(), Round: cs.round}
	ids := make([]int, 0, len(cs.resid))
	for id := range cs.resid {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny n, no deps
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	for _, id := range ids {
		s.Residuals = append(s.Residuals, WorkerResidual{ID: id, V: append([]float64(nil), cs.resid[id]...)})
	}
	if cs.residDown != nil {
		s.Down = append([]float64(nil), cs.residDown...)
	}
	return s
}

func (cs *codecState) restore(s *CodecSnapshot) error {
	if s == nil {
		return fmt.Errorf("comm: nil codec snapshot")
	}
	if got, want := s.Spec, cs.codec.String(); got != want {
		return fmt.Errorf("comm: codec snapshot is for codec %q, run uses %q", got, want)
	}
	cs.restored = s
	return nil
}

// roundTrip runs one error-feedback compression round over a message, in
// place: residual absorbs src, the profile's compact selection of the sum
// is written into m, and residual keeps what the selection left out. dec,
// when a caller needs the dense form, receives the selection's exact
// reconstruction (zeros at untransmitted positions); nil skips it. src,
// residual and dec have equal length; dec must not alias src or residual.
//
// Every receiver of m reconstructs exactly dec — the wire carries the
// full float64 bits of values and quantizer scalars — which is what makes
// the collective bit-identical across backends.
func roundTrip(p profile, src, residual, dec tensor.Vector, round uint64, m *compactMsg) {
	n := len(src)
	m.kind = p.kind
	m.dim = n
	m.bits = p.bits
	m.idx = m.idx[:0]
	m.vals = m.vals[:0]
	m.los = m.los[:0]
	m.scales = m.scales[:0]
	m.start = 0
	m.wire = p.wireBytes(n, round)

	switch p.kind {
	case CodecNone:
		// Identity: no error feedback, dec = src verbatim.
		dec.CopyFrom(src)
	case CodecTopK:
		m.idx = tensor.TopKSelectAdd(residual, src, p.keepCount(n), m.idx)
		if dec != nil {
			dec.Zero()
		}
		prev := -1
		for _, i := range m.idx {
			v := residual[i]
			m.vals = append(m.vals, v)
			residual[i] = 0
			if dec != nil {
				dec[i] = v
			}
			// The packed gap replaces the ledger's nominal index bytes.
			m.wire += int64(uvarintLen(uint64(int(i)-prev-1))+8) - sparseNominalEntryBytes
			prev = int(i)
		}
	case CodecQuant:
		bytesPer := p.bits / 8
		if cap(m.q) < n*bytesPer {
			m.q = make([]byte, n*bytesPer)
		}
		m.q = m.q[:n*bytesPer]
		if dec == nil {
			// The residual needs each chunk's reconstruction even when no
			// caller does; vals, unused by this kind, stages it.
			m.vals = tensor.EnsureVector(m.vals, min(n, ChunkElems))
		}
		for lo := 0; lo < n; lo += ChunkElems {
			hi := min(lo+ChunkElems, n)
			acc, d := residual[lo:hi], tensor.Vector(m.vals)
			if dec != nil {
				d = dec[lo:hi]
			}
			d = d[:hi-lo]
			acc.Add(src[lo:hi])
			qlo, qscale := tensor.QuantizeChunk(acc, p.bits, m.q[lo*bytesPer:])
			tensor.DequantizeChunk(d, p.bits, m.q[lo*bytesPer:], qlo, qscale)
			acc.Sub(d)
			m.los = append(m.los, qlo)
			m.scales = append(m.scales, qscale)
		}
	case CodecPartial:
		lo, hi := p.window(n, round)
		residual.Add(src)
		m.start = lo
		m.vals = append(m.vals, residual[lo:hi]...)
		residual[lo:hi].Zero()
		if dec != nil {
			dec.Zero()
			copy(dec[lo:hi], m.vals)
		}
	default:
		panic("comm: roundTrip: unknown codec kind")
	}
}

// msgType returns the frame type a profile's chunks travel as.
func (p profile) msgType() MsgType {
	switch p.kind {
	case CodecTopK:
		return MsgSparseChunk
	case CodecQuant:
		return MsgQuantChunk
	case CodecPartial:
		return MsgRangeChunk
	}
	return MsgTensorChunk
}

// appendSparseChunk encodes one chunk of a sparse message, bit-packed:
// [count u32], one uvarint gap per entry (gap = position − *prev − 1),
// then the float64 values. *prev threads the previous position across the
// chunks of a message (initially −1), so gaps stay small — a 1%-dense
// stream averages gaps near 100, one varint byte instead of four index
// bytes. Non-ascending input encodes a negative gap as a huge uint64,
// which every decoder rejects as out of range.
func appendSparseChunk(dst []byte, idx []uint32, vals []float64, prev *int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for _, i := range idx {
		gap := uint64(int64(i) - int64(*prev) - 1)
		dst = binary.AppendUvarint(dst, gap)
		*prev = int(i)
	}
	return tensor.AppendVector(dst, vals)
}

// decodeSparseChunk scatters one packed sparse chunk into dst, enforcing
// strictly ascending positions (continuing from *last, initially -1) and
// bounds. Returns the entry count. It never panics on corrupt payloads:
// bad counts, truncated or overlong varints, and gap overflows all map to
// errors, and nothing is written to dst until the whole chunk validates.
func decodeSparseChunk(dst tensor.Vector, payload []byte, last *int) (int, error) {
	if len(payload) < sparseChunkOverhead {
		return 0, fmt.Errorf("comm: sparse chunk payload %d bytes shorter than count header %d", len(payload), sparseChunkOverhead)
	}
	n := int(binary.LittleEndian.Uint32(payload))
	rest := payload[sparseChunkOverhead:]
	// Each entry costs at least one gap byte and exactly eight value bytes.
	if n < 0 || n > len(rest)/9 {
		return 0, fmt.Errorf("comm: sparse chunk count %d exceeds %d payload bytes", n, len(rest))
	}
	// First pass: validate every gap and the stream geometry before
	// touching dst, so a corrupt chunk cannot leave a half-scattered
	// message behind.
	off, pos := 0, *last
	for i := 0; i < n; i++ {
		gap, w := binary.Uvarint(rest[off:])
		if w <= 0 {
			return 0, fmt.Errorf("comm: sparse chunk entry %d: truncated or overlong index varint", i)
		}
		off += w
		// pos + 1 + gap must stay below len(dst); pos ≥ −1 and < len(dst),
		// so len(dst)−pos−1 is a non-negative bound on the allowed gap.
		if gap >= uint64(len(dst)-pos-1) {
			return 0, fmt.Errorf("comm: sparse chunk entry %d: position gap %d out of range for %d-element message (prev %d)", i, gap, len(dst), pos)
		}
		pos += 1 + int(gap)
	}
	if len(rest)-off != n*8 {
		return 0, fmt.Errorf("comm: sparse chunk carries %d value bytes for %d entries", len(rest)-off, n)
	}
	// Second pass: scatter.
	vals := rest[off:]
	off, pos = 0, *last
	for i := 0; i < n; i++ {
		gap, w := binary.Uvarint(rest[off:])
		off += w
		pos += 1 + int(gap)
		dst[pos] = math.Float64frombits(binary.LittleEndian.Uint64(vals[i*8:]))
	}
	*last = pos
	return n, nil
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// PackedSparseWireBytes is the exact wire footprint (headers + payload)
// of one top-k message with the given ascending positions under the
// packed MsgSparseChunk encoding — the mirror of sendCompressedEP's
// chunking, asserted equal to the encoder's actual output by
// TestCodecWireBytesExactAndRoundTrip. Data-dependent, hence not part of
// the logical ledger (which charges the canonical 12-byte entries).
func PackedSparseWireBytes(idx []uint32) int64 {
	var total int64
	prev := -1
	for lo := 0; ; lo += ChunkElems {
		hi := min(lo+ChunkElems, len(idx))
		total += HeaderSize + sparseChunkOverhead
		for _, i := range idx[lo:hi] {
			total += int64(uvarintLen(uint64(int64(i)-int64(prev)-1))) + 8
			prev = int(i)
		}
		if hi == len(idx) {
			return total
		}
	}
}

// appendQuantChunk encodes one quantized window: header scalars plus the
// raw levels.
func appendQuantChunk(dst []byte, bits int, lo, scale float64, levels []byte) []byte {
	dst = append(dst, byte(bits))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lo))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
	return append(dst, levels...)
}

// decodeQuantChunk dequantizes one chunk into dst[off:], validating width,
// finite scalars and bounds. Returns the element count.
func decodeQuantChunk(dst tensor.Vector, off int, wantBits int, payload []byte) (int, error) {
	if len(payload) < quantChunkOverhead {
		return 0, fmt.Errorf("comm: quant chunk payload %d bytes shorter than header %d", len(payload), quantChunkOverhead)
	}
	bits := int(payload[0])
	if bits != wantBits {
		return 0, fmt.Errorf("comm: quant chunk width %d bits, codec uses %d", bits, wantBits)
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(payload[1:]))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(payload[9:]))
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return 0, fmt.Errorf("comm: quant chunk scalars out of range (lo=%v scale=%v)", lo, scale)
	}
	levels := payload[quantChunkOverhead:]
	bytesPer := bits / 8
	if len(levels)%bytesPer != 0 {
		return 0, fmt.Errorf("comm: quant chunk levels %d bytes not a multiple of %d", len(levels), bytesPer)
	}
	n := len(levels) / bytesPer
	if off+n > len(dst) {
		return 0, fmt.Errorf("comm: quant stream overflows %d-element message at %d+%d", len(dst), off, n)
	}
	tensor.DequantizeChunk(dst[off:off+n], bits, levels, lo, scale)
	return n, nil
}

// appendRangeChunk encodes one dense block starting at start.
func appendRangeChunk(dst []byte, start int, vals []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(start))
	return tensor.AppendVector(dst, vals)
}

// decodeRangeChunk writes one dense block into dst, enforcing
// non-overlapping forward progress (blocks at or after *next) and bounds.
func decodeRangeChunk(dst tensor.Vector, payload []byte, next *int) (int, error) {
	if len(payload) < rangeChunkOverhead || (len(payload)-rangeChunkOverhead)%8 != 0 {
		return 0, fmt.Errorf("comm: range chunk payload %d bytes malformed", len(payload))
	}
	start := int(binary.LittleEndian.Uint32(payload))
	n := (len(payload) - rangeChunkOverhead) / 8
	if start < *next {
		return 0, fmt.Errorf("comm: range chunk start %d overlaps previous block end %d", start, *next)
	}
	if start+n > len(dst) {
		return 0, fmt.Errorf("comm: range chunk [%d,%d) out of range for %d-element message", start, start+n, len(dst))
	}
	if err := tensor.DecodeVector(dst[start:start+n], payload[rangeChunkOverhead:]); err != nil {
		return 0, err
	}
	*next = start + n
	return n, nil
}

// sendCompressedEP streams one compact message to a peer, chunked under
// MaxPayload, reusing scratch. The dense (CodecNone) case is handled by
// the caller via sendTensorEP.
func sendCompressedEP(ep Endpoint, to, worker int, m *compactMsg, scratch []byte) ([]byte, error) {
	send := func(t MsgType, seq uint32, last bool, payload []byte) error {
		f := Frame{Type: t, Worker: int32(worker), Seq: seq, Payload: payload}
		if last {
			f.Flags |= FlagLast
		}
		return ep.Send(to, &f)
	}
	switch m.kind {
	case CodecTopK:
		seq := uint32(0)
		prev := -1 // gap baseline threads across the message's chunks
		for lo := 0; ; lo += ChunkElems {
			hi := min(lo+ChunkElems, len(m.idx))
			scratch = appendSparseChunk(scratch[:0], m.idx[lo:hi], m.vals[lo:hi], &prev)
			last := hi == len(m.idx)
			if err := send(MsgSparseChunk, seq, last, scratch); err != nil {
				return scratch, err
			}
			if last {
				return scratch, nil
			}
			seq++
		}
	case CodecQuant:
		bytesPer := m.bits / 8
		seq := uint32(0)
		for lo := 0; ; lo += ChunkElems {
			hi := min(lo+ChunkElems, m.dim)
			c := int(seq)
			scratch = appendQuantChunk(scratch[:0], m.bits, m.los[c], m.scales[c], m.q[lo*bytesPer:hi*bytesPer])
			last := hi == m.dim
			if err := send(MsgQuantChunk, seq, last, scratch); err != nil {
				return scratch, err
			}
			if last {
				return scratch, nil
			}
			seq++
		}
	case CodecPartial:
		seq := uint32(0)
		for lo := 0; ; lo += ChunkElems {
			hi := min(lo+ChunkElems, len(m.vals))
			scratch = appendRangeChunk(scratch[:0], m.start+lo, m.vals[lo:hi])
			last := hi == len(m.vals)
			if err := send(MsgRangeChunk, seq, last, scratch); err != nil {
				return scratch, err
			}
			if last {
				return scratch, nil
			}
			seq++
		}
	}
	return scratch, fmt.Errorf("comm: sendCompressedEP: codec kind %d has no wire form", m.kind)
}

// recvCompressedEP reassembles one compressed message from a peer into
// dst — dense, with untransmitted positions zeroed — validating frame
// type, worker tag, sequence and every payload, and handing each chunk
// frame back to its transport once decoded or rejected. The dense
// (CodecNone) case is handled by the caller via recvTensorEP.
func recvCompressedEP(rx recver, from, worker int, p profile, dst tensor.Vector) error {
	dst.Zero()
	want := p.msgType()
	last := -1 // sparse ascending tracker
	off := 0   // quant element cursor / range forward cursor
	for seq := uint32(0); ; seq++ {
		f, err := rx.Recv(from)
		if err != nil {
			return err
		}
		if err = checkChunk(f, want, from, worker, seq); err == nil {
			switch p.kind {
			case CodecTopK:
				_, err = decodeSparseChunk(dst, f.Payload, &last)
			case CodecQuant:
				var n int
				n, err = decodeQuantChunk(dst, off, p.bits, f.Payload)
				off += n
			case CodecPartial:
				_, err = decodeRangeChunk(dst, f.Payload, &off)
			}
		}
		done := f.Flags&FlagLast != 0
		f.release()
		if err != nil {
			return err
		}
		if done {
			if p.kind == CodecQuant && off != len(dst) {
				return fmt.Errorf("comm: quant stream ended at %d of %d elements", off, len(dst))
			}
			return nil
		}
	}
}
