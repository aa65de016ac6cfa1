package comm

import (
	"bytes"
	"testing"
)

// sparseChunk builds one packed sparse chunk for seeds, with the gap
// baseline (the previous chunk's final position, −1 at message start).
func sparseChunk(prev int, idx []uint32, vals []float64) []byte {
	return appendSparseChunk(nil, idx, vals, prev)
}

// FuzzDecodeFrame holds DecodeFrame to its contract: arbitrary bytes must
// decode or error, never panic, and anything that decodes must re-encode
// to the exact consumed prefix.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, &Frame{Type: MsgHello, Worker: 3}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgTensorChunk, Flags: FlagLast, Worker: 1, Seq: 9, Payload: putScalar(nil, 3.25)}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgFlags, Payload: []byte{0b1010}}))
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize+8))
	f.Add(AppendFrame(nil, &Frame{Type: MsgSparseChunk, Flags: FlagLast, Worker: 2, Payload: sparseChunk(-1, []uint32{1, 5}, []float64{0.5, -2})}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgQuantChunk, Flags: FlagLast, Worker: 2, Payload: appendQuantChunk(nil, 8, -1, 0.25, []byte{0, 128, 255})}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgRangeChunk, Flags: FlagLast, Worker: 2, Payload: appendRangeChunk(nil, 3, []float64{1, 2})}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgServeReq, Worker: -1, Payload: []byte(`{"op":"status"}`)}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgServeResp, Worker: -1, Payload: []byte(`{"ok":true,"job":"j-000001"}`)}))
	f.Add(AppendFrame(nil, &Frame{Type: MsgServeEvent, Flags: FlagLast, Worker: -1, Payload: []byte(`{"job":"j-000001","seq":3,"type":"done","final":true}`)}))

	f.Fuzz(func(t *testing.T, b []byte) {
		frame, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Round-trip: a successfully decoded frame re-encodes to the bytes
		// it was decoded from.
		if re := AppendFrame(nil, &frame); !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b[:n])
		}
	})
}

// FuzzDecodeCodecPayload holds the codec chunk decoders to the
// DecodeFrame standard: arbitrary payload bytes — corrupt index lists,
// out-of-range scales, truncated level streams — must decode or error,
// never panic, and never write outside the destination vector. The sparse
// entry decoder must append only strictly ascending positions below the
// message's dimension, and nothing at all on error.
func FuzzDecodeCodecPayload(f *testing.F) {
	f.Add(uint8(0), sparseChunk(-1, []uint32{0, 7, 31}, []float64{1, -2, 3}))
	f.Add(uint8(0), sparseChunk(-1, []uint32{9, 2}, []float64{1, 1}))              // descending: must error
	f.Add(uint8(0), sparseChunk(30, []uint32{31}, []float64{4}))                   // cross-chunk continuation
	f.Add(uint8(0), []byte{255, 255, 255, 255, 1, 2, 3})                           // absurd count: must error
	f.Add(uint8(0), append([]byte{1, 0, 0, 0}, bytes.Repeat([]byte{0x80}, 12)...)) // truncated varint
	f.Add(uint8(1), appendQuantChunk(nil, 8, -0.5, 0.01, bytes.Repeat([]byte{7}, 32)))
	f.Add(uint8(1), appendQuantChunk(nil, 16, 0, 1e308, bytes.Repeat([]byte{1, 2}, 16)))
	f.Add(uint8(2), appendRangeChunk(nil, 4, []float64{1, 2, 3}))
	f.Add(uint8(2), appendRangeChunk(nil, 1<<30, []float64{1})) // out of range: must error

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		const dim = 32
		if kind%3 == 0 {
			// A previous chunk's entries, and the continuation point the fuzzer
			// picks; what the decoder appends must continue them.
			last := int(kind/3)%(dim+1) - 1
			idx, vals := []uint32{0}, []float64{42}
			idx, vals, err := decodeSparseChunk(idx, vals, dim, payload, &last)
			if len(idx) != len(vals) {
				t.Fatalf("%d positions for %d values", len(idx), len(vals))
			}
			if err != nil {
				if len(idx) != 1 {
					t.Fatalf("refused chunk appended %d entries", len(idx)-1)
				}
				return
			}
			prev := int(kind/3)%(dim+1) - 1
			for _, i := range idx[1:] {
				if int(i) <= prev || int(i) >= dim {
					t.Fatalf("position %d after %d in a %d-element message", i, prev, dim)
				}
				prev = int(i)
			}
			if prev != last {
				t.Fatalf("last position %d, decoder reports %d", prev, last)
			}
			return
		}
		// Guard pages: the dense decoders get a window of a larger buffer;
		// bytes outside the window must stay untouched no matter the input.
		buf := make([]float64, dim+2)
		for i := range buf {
			buf[i] = 42
		}
		dst := buf[1 : dim+1]
		switch kind % 3 {
		case 1:
			for _, bits := range []int{8, 16} {
				decodeQuantChunk(dst, int(kind)%dim, bits, payload)
			}
		case 2:
			next := 0
			decodeRangeChunk(dst, payload, &next)
		}
		if buf[0] != 42 || buf[dim+1] != 42 {
			t.Fatalf("decoder wrote outside destination window: %v %v", buf[0], buf[dim+1])
		}
	})
}

// FuzzParseCodec: a codec spec comes from a flag or a serve request. Any
// string parses or errors, never panics, and an accepted spec's canonical
// form (Codec.String, what the ranks fingerprint) parses back to the same
// Codec.
func FuzzParseCodec(f *testing.F) {
	for _, s := range []string{"", "none", " q8 ", "q16", "q", "topk:0.01", "topk:1", "topk:NaN", "topk:0x1p-4",
		"partial:0.25", "partial:0.5,0.125", "partial:1,", "partial:0.5,0.5", "partial:1e-300", "x:y", "topk:0.1:0.2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCodec(s)
		if err != nil {
			return
		}
		again, err := ParseCodec(c.String())
		if err != nil {
			t.Fatalf("ParseCodec(%q) = %+v, whose String %q does not parse: %v", s, c, c.String(), err)
		}
		if again != c {
			t.Fatalf("ParseCodec(%q) = %+v, but its String %q parses to %+v", s, c, c.String(), again)
		}
	})
}

// FuzzParseFaultPlan: a fault plan comes from a flag. Any string parses or
// errors, never panics, and an accepted plan's probabilities are
// probabilities and its ranks ranks or the −1 wildcard.
func FuzzParseFaultPlan(f *testing.F) {
	for _, s := range []string{"", "seed=7; delay=100us..1ms; drop=0.01; dup=0.01; partition=200..400; crash=5000",
		"link=0>1; delay=1ms", "link=*>2; drop=1; retrans=2ms; stall=5ms", "link=-1>0", "drop=2", "delay=5..1",
		"partition=9..3", "seed=x", ";;", "=", "link=0>", "delay=1ms..", "crash=-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		for _, lf := range plan.Links {
			if !(lf.Drop >= 0 && lf.Drop <= 1) || !(lf.Dup >= 0 && lf.Dup <= 1) || lf.From < -1 || lf.To < -1 {
				t.Fatalf("ParseFaultPlan(%q) accepted link %+v", s, lf)
			}
		}
	})
}
