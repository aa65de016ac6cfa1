package comm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Payload codecs: the negotiated compression a fabric applies to the
// synchronization collectives. A codec never changes the *mean* a round
// computes — one contribution per id, averaged in ids order — only the
// representation of each tensor message on the wire, plus the per-stream
// error-feedback residual that makes lossy codecs converge: whatever a round
// leaves out is carried forward and added to the next round's message. (It
// does pick the route the round takes; see reduce.go.)
//
// Determinism contract: every lossy decision (top-k selection,
// quantization rounding, partial-window rotation) is a pure function of
// the message values and a shared round counter, and the decoded values a
// receiver reconstructs are bit-equal to the sender's own local
// reconstruction (the one error feedback subtracts). Hence the same
// seed+codec produces the same digest on loopback and TCP, across
// repeats.

// CodecKind enumerates payload codecs.
type CodecKind uint8

const (
	// CodecNone is the identity codec: dense float64 chunks, today's wire
	// format, bit-identical to the uncompressed path.
	CodecNone CodecKind = iota
	// CodecTopK transmits only the k = ceil(frac·dim) largest-magnitude
	// coordinates as index+value pairs, with error feedback.
	CodecTopK
	// CodecQuant transmits every coordinate linearly quantized to Bits
	// wide fixed point (per-chunk min/scale), with error feedback.
	CodecQuant
	// CodecPartial transmits one contiguous block of ceil(frac·dim)
	// coordinates per round, rotating through the vector across rounds
	// (eta_d/eta_r-style selective sharing), with error feedback. Upload
	// and download fractions are independent knobs.
	CodecPartial
)

// Codec is a parsed codec spec: the kind plus its parameters. The zero
// value is the identity codec.
type Codec struct {
	Kind CodecKind
	// Frac is the kept fraction per message: top-k's k/dim, or partial's
	// upload fraction eta_d.
	Frac float64
	// Down is partial's download fraction eta_r (defaults to Frac).
	Down float64
	// Bits is the quantizer width (8 or 16).
	Bits int
}

// Nop reports whether c is the identity codec.
func (c Codec) Nop() bool { return c.Kind == CodecNone }

// String renders the canonical spec ParseCodec accepts.
func (c Codec) String() string {
	switch c.Kind {
	case CodecNone:
		return "none"
	case CodecTopK:
		return "topk:" + strconv.FormatFloat(c.Frac, 'g', -1, 64)
	case CodecQuant:
		return fmt.Sprintf("q%d", c.Bits)
	case CodecPartial:
		s := "partial:" + strconv.FormatFloat(c.Frac, 'g', -1, 64)
		if c.Down != c.Frac {
			s += "," + strconv.FormatFloat(c.Down, 'g', -1, 64)
		}
		return s
	}
	return fmt.Sprintf("codec(%d)", c.Kind)
}

// Fingerprint is the value codec negotiation compares across ranks: a
// 32-bit FNV-1a of the canonical spec (exactly representable in the
// float64 a control frame carries).
func (c Codec) Fingerprint() uint32 {
	h := fnv.New32a()
	h.Write([]byte(c.String()))
	return h.Sum32()
}

const codecGrammar = "none, topk:<frac>, q8, q16, partial:<up>[,<down>]"

// ParseCodec parses a codec spec. Grammar (like ParseFaultPlan, every
// malformed token is named in the error):
//
//	none                 identity (default)
//	topk:<frac>          top-k sparsification, 0 < frac < 1
//	q8 | q16             8/16-bit linear quantization
//	partial:<up>[,<down>] partial sharing, fractions in (0, 1]
func ParseCodec(s string) (Codec, error) {
	spec := strings.TrimSpace(s)
	switch spec {
	case "", "none":
		return Codec{}, nil
	case "q8":
		return Codec{Kind: CodecQuant, Bits: 8}, nil
	case "q16":
		return Codec{Kind: CodecQuant, Bits: 16}, nil
	}
	key, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return Codec{}, fmt.Errorf("comm: codec: unknown codec %q (known: %s)", spec, codecGrammar)
	}
	frac := func(tok string) (float64, error) {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return 0, fmt.Errorf("comm: codec: bad fraction %q in %q for key %q", tok, spec, key)
		}
		return f, nil
	}
	switch key {
	case "topk":
		f, err := frac(arg)
		if err != nil {
			return Codec{}, err
		}
		if !(f > 0 && f < 1) {
			return Codec{}, fmt.Errorf("comm: codec: topk fraction %q in %q must be in (0, 1)", arg, spec)
		}
		return Codec{Kind: CodecTopK, Frac: f, Down: f}, nil
	case "partial":
		up, down, hasDown := strings.Cut(arg, ",")
		u, err := frac(up)
		if err != nil {
			return Codec{}, err
		}
		d := u
		if hasDown {
			if d, err = frac(down); err != nil {
				return Codec{}, err
			}
		}
		if !(u > 0 && u <= 1) || !(d > 0 && d <= 1) {
			return Codec{}, fmt.Errorf("comm: codec: partial fractions %q in %q must be in (0, 1]", arg, spec)
		}
		return Codec{Kind: CodecPartial, Frac: u, Down: d}, nil
	case "q":
		return Codec{}, fmt.Errorf("comm: codec: unknown codec %q (known: %s)", spec, codecGrammar)
	default:
		return Codec{}, fmt.Errorf("comm: codec: unknown key %q in %q (known: %s)", key, spec, codecGrammar)
	}
}

// profile is one direction of a codec (uplink or downlink): partial's
// upload and download fractions differ, everything else is symmetric.
type profile struct {
	kind CodecKind
	frac float64
	bits int
}

func (c Codec) up() profile   { return profile{kind: c.Kind, frac: c.Frac, bits: c.Bits} }
func (c Codec) down() profile { return profile{kind: c.Kind, frac: c.Down, bits: c.Bits} }

// keepCount is the kept-coordinate budget for an n-element message.
func (p profile) keepCount(n int) int {
	k := int(math.Ceil(float64(n) * p.frac))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// window is partial sharing's block for the given round: the vector is
// tiled into ceil(n/k) windows of k and round r sends window r mod that.
func (p profile) window(n int, round uint64) (int, int) {
	k := p.keepCount(n)
	blocks := (n + k - 1) / k
	w := int(round % uint64(blocks))
	lo := w * k
	hi := lo + k
	if hi > n {
		hi = n
	}
	return lo, hi
}

// wireBytes is the wire footprint (headers + payload) of one n-element
// message under this profile at the given round — the formula the logical
// ledger uses. For every kind but top-k it equals the encoder's actual
// output bit for bit (asserted by TestCodecWireBytesExactAndRoundTrip);
// for top-k it charges the canonical 12-byte index+value entries, a pure
// function of codec and dimension, while the packed encoding's actual
// (data-dependent) bytes are tracked separately (Mesh.CodecPackedWire, and
// NetStats on TCP).
func (p profile) wireBytes(n int, round uint64) int64 {
	chunksFor := func(elems, per int) int64 {
		if elems <= 0 {
			return 1
		}
		return int64((elems + per - 1) / per)
	}
	switch p.kind {
	case CodecNone:
		return TensorWireBytes(n)
	case CodecTopK:
		k := p.keepCount(n)
		return chunksFor(k, ChunkElems)*(HeaderSize+sparseChunkOverhead) + int64(k)*sparseNominalEntryBytes
	case CodecQuant:
		return chunksFor(n, ChunkElems)*(HeaderSize+quantChunkOverhead) + int64(n)*int64(p.bits)/8
	case CodecPartial:
		lo, hi := p.window(n, round)
		k := hi - lo
		return chunksFor(k, ChunkElems)*(HeaderSize+rangeChunkOverhead) + int64(k)*8
	}
	panic("comm: wireBytes: unknown codec kind")
}

// CodecSnapshot is the error-feedback state of one rank, as captured into
// checkpoints: resuming a lossy-codec run replays the exact residuals, so
// the resumed digest equals the uninterrupted one.
type CodecSnapshot struct {
	// Spec is the canonical codec string; restore validates it matches.
	Spec string
	// Round is the shared collective counter (partial sharing's rotation).
	Round uint64
	// Residuals holds the uplink error-feedback accumulator per hosted
	// worker id, ascending.
	Residuals []WorkerResidual
	// Down is this rank's replica of the downlink accumulator, captured on
	// every rank once a lossy round has run. A snapshot past round 0
	// without it is refused (ErrSnapshotNoDownlink).
	Down []float64
}

// ErrSnapshotNoDownlink refuses a codec snapshot that has run rounds but
// carries no downlink residual — a file written by a rank that kept no
// replica of it. Every rank runs the downlink compression now, and resuming
// from a zeroed residual would silently diverge from the other ranks.
var ErrSnapshotNoDownlink = errors.New("comm: codec snapshot carries no downlink residual (written by a rank that kept no replica)")

// WorkerResidual pairs a global worker id with its uplink residual.
type WorkerResidual struct {
	ID int
	V  []float64
}
