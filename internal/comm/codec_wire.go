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
// produced by roundTrip (or, for a peer's top-k message, recvSparseEP) and
// streamed chunk by chunk through appendChunk. Its slices are reused by the
// next message written into it.
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
	// chunked encoding — what Mesh.sendCodecMsg emits. For every kind but
	// top-k that is the ledger formula; for top-k it is the packed
	// (data-dependent) size, PackedSparseWireBytes(idx).
	wire int64
}

// exchSlot is one contribution of a lossy round (Mesh.exchange): its compact
// message — a hosted contribution's encoding, or a peer's top-k entries —
// and, under the codecs whose messages are averaged densely, its
// reconstruction.
type exchSlot struct {
	msg   compactMsg
	dense tensor.Vector
}

// codecState is the per-fabric compression engine: the negotiated codec,
// the shared round counter, and the error-feedback residuals (one
// full-dimension accumulator per hosted worker for the uplink, and every
// rank's replica of the downlink one). Every Mesh embeds one.
type codecState struct {
	codec Codec
	round uint64
	// resid maps global worker id → uplink error-feedback accumulator.
	resid map[int]tensor.Vector
	// residDown is the downlink accumulator. Every rank folds the same means
	// into its own replica, so the replicas stay bit-identical.
	residDown tensor.Vector
	// slots holds one round's contributions in ids order; down is the
	// downlink message every rank compresses and none sends; sum is the
	// top-k fold's per-position accumulator, all +0 between rounds.
	slots []exchSlot
	down  compactMsg
	sum   tensor.Vector
	// packedRecv / packedSent track the actual encoded bytes of the codec
	// messages this rank produced under a lossy codec, in ledger orientation
	// (uplink messages → Recv, the downlink message once per worker → Sent).
	// Complete on a one-rank fabric, which encodes every message of every
	// round; diagnostic only — the logical ledger stays the pure wireBytes
	// formula.
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

// sparseSum returns the top-k fold's accumulator for rounds of up to dim
// elements, all +0.
func (cs *codecState) sparseSum(dim int) tensor.Vector {
	if len(cs.sum) < dim {
		cs.sum = tensor.NewVector(dim)
	}
	return cs.sum
}

// exchSlots returns n contribution slots, each with a dim-element dense
// reconstruction when dense is set. Slots keep their buffers from round to
// round.
func (cs *codecState) exchSlots(n, dim int, dense bool) []exchSlot {
	for len(cs.slots) < n {
		cs.slots = append(cs.slots, exchSlot{})
	}
	s := cs.slots[:n]
	for i := range s {
		if dense {
			s[i].dense = tensor.EnsureVector(s[i].dense, dim)
		}
	}
	return s
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
	if s.Round > 0 && s.Down == nil {
		return fmt.Errorf("comm: codec %q snapshot at round %d: %w", s.Spec, s.Round, ErrSnapshotNoDownlink)
	}
	cs.restored = s
	return nil
}

// roundTrip runs one error-feedback compression round over a message, in
// place: residual absorbs src (src nil: the residual already holds the
// sum), the profile's compact selection of the sum is written into m, and
// residual keeps what the selection left out. dec, when a caller needs the
// dense form, receives the selection's exact reconstruction (zeros at
// untransmitted positions); nil skips it. src, residual and dec have equal
// length; dec must not alias src or residual.
//
// Every receiver of m reconstructs exactly dec — the wire carries the
// full float64 bits of values and quantizer scalars — which is what makes
// the collective bit-identical across backends.
func roundTrip(p profile, src, residual, dec tensor.Vector, round uint64, m *compactMsg) {
	n := len(residual)
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
			if src != nil {
				acc.Add(src[lo:hi])
			}
			qlo, qscale := tensor.QuantizeChunk(acc, p.bits, m.q[lo*bytesPer:])
			tensor.DequantizeChunk(d, p.bits, m.q[lo*bytesPer:], qlo, qscale)
			acc.Sub(d)
			m.los = append(m.los, qlo)
			m.scales = append(m.scales, qscale)
		}
	case CodecPartial:
		lo, hi := p.window(n, round)
		if src != nil {
			residual.Add(src)
		}
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

// msgType returns the frame type a codec's chunks travel as.
func (k CodecKind) msgType() MsgType {
	switch k {
	case CodecTopK:
		return MsgSparseChunk
	case CodecQuant:
		return MsgQuantChunk
	case CodecPartial:
		return MsgRangeChunk
	}
	return MsgTensorChunk
}

// chunks is the number of frames m travels in: ChunkElems entries (top-k),
// elements (quantized) or values (partial) a frame, and at least one.
func (m *compactMsg) chunks() int {
	n := len(m.vals)
	if m.kind == CodecQuant {
		n = m.dim // vals only stages the quantizer's reconstruction
	}
	return max(1, (n+ChunkElems-1)/ChunkElems)
}

// appendChunk appends the payload of m's chunk c to dst.
func (m *compactMsg) appendChunk(dst []byte, c int) []byte {
	lo := c * ChunkElems
	switch m.kind {
	case CodecTopK:
		hi := min(lo+ChunkElems, len(m.idx))
		prev := -1
		if lo > 0 {
			prev = int(m.idx[lo-1])
		}
		return appendSparseChunk(dst, m.idx[lo:hi], m.vals[lo:hi], prev)
	case CodecQuant:
		hi, bytesPer := min(lo+ChunkElems, m.dim), m.bits/8
		return appendQuantChunk(dst, m.bits, m.los[c], m.scales[c], m.q[lo*bytesPer:hi*bytesPer])
	case CodecPartial:
		hi := min(lo+ChunkElems, len(m.vals))
		return appendRangeChunk(dst, m.start+lo, m.vals[lo:hi])
	}
	panic(fmt.Sprintf("comm: codec kind %d has no compact wire form", m.kind))
}

// appendSparseChunk encodes one chunk of a sparse message, bit-packed:
// [count u32], one uvarint gap per entry (gap = position − previous
// position − 1), then the float64 values. prev is the position before the
// chunk's first — the previous chunk's last, −1 at the start of a message —
// so gaps stay small across chunks: a 1%-dense stream averages gaps near
// 100, one varint byte instead of four index bytes. Non-ascending input
// encodes a negative gap as a huge uint64, which the decoder rejects as out
// of range.
func appendSparseChunk(dst []byte, idx []uint32, vals []float64, prev int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = binary.AppendUvarint(dst, uint64(int64(i)-int64(prev)-1))
		prev = int(i)
	}
	return tensor.AppendVector(dst, vals)
}

// decodeSparseChunk appends one packed sparse chunk's entries to idx and
// vals, enforcing strictly ascending positions (continuing from *last,
// initially −1) below dim. It never panics on corrupt payloads: bad counts,
// truncated or overlong varints, and gap overflows all map to errors, and
// nothing is appended until the whole chunk validates.
func decodeSparseChunk(idx []uint32, vals []float64, dim int, payload []byte, last *int) ([]uint32, []float64, error) {
	if len(payload) < sparseChunkOverhead {
		return idx, vals, fmt.Errorf("comm: sparse chunk payload %d bytes shorter than count header %d", len(payload), sparseChunkOverhead)
	}
	n := int(binary.LittleEndian.Uint32(payload))
	rest := payload[sparseChunkOverhead:]
	// Each entry costs at least one gap byte and exactly eight value bytes.
	if n < 0 || n > len(rest)/9 {
		return idx, vals, fmt.Errorf("comm: sparse chunk count %d exceeds %d payload bytes", n, len(rest))
	}
	// First pass: validate every gap and the stream geometry before
	// appending anything, so a corrupt chunk cannot leave a half-decoded
	// message behind.
	off, pos := 0, *last
	for i := 0; i < n; i++ {
		gap, w := binary.Uvarint(rest[off:])
		if w <= 0 {
			return idx, vals, fmt.Errorf("comm: sparse chunk entry %d: truncated or overlong index varint", i)
		}
		off += w
		// pos + 1 + gap must stay below dim; pos ≥ −1 and < dim, so
		// dim−pos−1 is a non-negative bound on the allowed gap.
		if gap >= uint64(dim-pos-1) {
			return idx, vals, fmt.Errorf("comm: sparse chunk entry %d: position gap %d out of range for %d-element message (prev %d)", i, gap, dim, pos)
		}
		pos += 1 + int(gap)
	}
	if len(rest)-off != n*8 {
		return idx, vals, fmt.Errorf("comm: sparse chunk carries %d value bytes for %d entries", len(rest)-off, n)
	}
	// Second pass: append.
	valBytes := rest[off:]
	off, pos = 0, *last
	for i := 0; i < n; i++ {
		gap, w := binary.Uvarint(rest[off:])
		off += w
		pos += 1 + int(gap)
		idx = append(idx, uint32(pos))
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(valBytes[i*8:])))
	}
	*last = pos
	return idx, vals, nil
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
// packed MsgSparseChunk encoding — the mirror of compactMsg.appendChunk's
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

// recvCompressedEP reassembles one quantized or partial message from a peer
// into dst — dense, with untransmitted positions zeroed — validating frame
// type, worker tag, sequence and every payload, and handing each chunk frame
// back to its transport once decoded or rejected. Top-k messages arrive as
// entries (recvSparseEP), dense ones through recvTensorEP.
func recvCompressedEP(rx recver, from, worker int, p profile, dst tensor.Vector) error {
	dst.Zero()
	off := 0 // quant element cursor / range forward cursor
	for seq := uint32(0); ; seq++ {
		f, err := rx.Recv(from)
		if err != nil {
			return err
		}
		if err = checkChunk(f, p.kind.msgType(), from, worker, seq); err == nil {
			switch p.kind {
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

// recvSparseEP reassembles one top-k message of a dim-element vector from a
// peer as entries: msg's positions (strictly ascending, below dim) and
// values, with the same frame checks and frame recycling as
// recvCompressedEP.
func recvSparseEP(rx recver, from, worker, dim int, msg *compactMsg) error {
	msg.kind, msg.dim = CodecTopK, dim
	msg.idx, msg.vals = msg.idx[:0], msg.vals[:0]
	last := -1
	for seq := uint32(0); ; seq++ {
		f, err := rx.Recv(from)
		if err != nil {
			return err
		}
		if err = checkChunk(f, MsgSparseChunk, from, worker, seq); err == nil {
			msg.idx, msg.vals, err = decodeSparseChunk(msg.idx, msg.vals, dim, f.Payload, &last)
		}
		done := f.Flags&FlagLast != 0
		f.release()
		if err != nil || done {
			return err
		}
	}
}
