package comm

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"selsync/internal/tensor"
)

func TestParseCodecValid(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
	}{
		{"", Codec{}},
		{"none", Codec{}},
		{" none ", Codec{}},
		{"q8", Codec{Kind: CodecQuant, Bits: 8}},
		{"q16", Codec{Kind: CodecQuant, Bits: 16}},
		{"topk:0.01", Codec{Kind: CodecTopK, Frac: 0.01, Down: 0.01}},
		{"topk:0.5", Codec{Kind: CodecTopK, Frac: 0.5, Down: 0.5}},
		{"partial:0.25", Codec{Kind: CodecPartial, Frac: 0.25, Down: 0.25}},
		{"partial:0.25,0.75", Codec{Kind: CodecPartial, Frac: 0.25, Down: 0.75}},
		{"partial:1", Codec{Kind: CodecPartial, Frac: 1, Down: 1}},
	}
	for _, c := range cases {
		got, err := ParseCodec(c.in)
		if err != nil {
			t.Fatalf("ParseCodec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseCodec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Canonical string re-parses to the same codec.
		again, err := ParseCodec(got.String())
		if err != nil || again != got {
			t.Fatalf("ParseCodec(%q).String()=%q does not round-trip: %+v %v", c.in, got.String(), again, err)
		}
	}
}

func TestParseCodecErrorsNameToken(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"gzip", `unknown codec "gzip"`},
		{"q4", `unknown codec "q4"`},
		{"q:8", `unknown codec "q:8"`},
		{"topk", `unknown codec "topk"`},
		{"topk:", `bad fraction ""`},
		{"topk:x", `bad fraction "x"`},
		{"topk:0", `must be in (0, 1)`},
		{"topk:1", `must be in (0, 1)`},
		{"topk:1.5", `must be in (0, 1)`},
		{"partial:0", `must be in (0, 1]`},
		{"partial:0.5,0", `must be in (0, 1]`},
		{"partial:0.5,abc", `bad fraction "abc"`},
		{"sparse:0.1", `unknown key "sparse"`},
	}
	for _, c := range cases {
		_, err := ParseCodec(c.in)
		if err == nil {
			t.Fatalf("ParseCodec(%q): expected error", c.in)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("ParseCodec(%q) error %q does not mention %q", c.in, err, c.wantSub)
		}
		if !strings.Contains(err.Error(), "comm: codec:") {
			t.Fatalf("ParseCodec(%q) error %q missing package prefix", c.in, err)
		}
	}
}

// captureEP records sent frames for byte accounting and replays them on
// Recv — a one-rank wire loop for exactness tests.
type captureEP struct {
	frames []Frame
	bytes  int64
}

func (c *captureEP) Rank() int  { return 0 }
func (c *captureEP) Procs() int { return 2 }
func (c *captureEP) Send(to int, f *Frame) error {
	cp := *f
	cp.Payload = append([]byte(nil), f.Payload...)
	c.frames = append(c.frames, cp)
	c.bytes += int64(HeaderSize + len(f.Payload))
	return nil
}
func (c *captureEP) Recv(from int) (*Frame, error) {
	if len(c.frames) == 0 {
		return nil, fmt.Errorf("captureEP: no frames")
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return &f, nil
}
func (c *captureEP) NetStats() EndpointStats { return EndpointStats{} }
func (c *captureEP) Close() error            { return nil }

// sendVia streams msg to rank 1 of ep through a mesh's sender, the one every
// codec message goes out through.
func sendVia(tb testing.TB, ep Endpoint, worker int, msg *compactMsg) {
	tb.Helper()
	m, err := NewMesh(ep, 2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.sendCodecMsg(worker, msg); err != nil {
		tb.Fatal(err)
	}
}

// recvDense receives one codec message from rank 1 as its dense
// reconstruction: a top-k message's entries scattered into a zeroed dst,
// every other kind straight from recvCompressedEP.
func recvDense(rx recver, worker int, p profile, dst tensor.Vector) error {
	if p.kind != CodecTopK {
		return recvCompressedEP(rx, 1, worker, p, dst)
	}
	var msg compactMsg
	if err := recvSparseEP(rx, 1, worker, len(dst), &msg); err != nil {
		return err
	}
	dst.Zero()
	for e, i := range msg.idx {
		dst[i] = msg.vals[e]
	}
	return nil
}

// The ledger formula must equal the encoder's actual frame bytes — except
// top-k, whose packed (data-dependent) encoding must instead match the
// PackedSparseWireBytes mirror exactly — and a receiver must reconstruct
// exactly the sender's local decode: for every codec, at dims spanning
// chunk boundaries, across rounds (partial sharing's window length varies
// by round).
func TestCodecWireBytesExactAndRoundTrip(t *testing.T) {
	specs := []string{"topk:0.01", "topk:0.37", "q8", "q16", "partial:0.25", "partial:0.3,0.7"}
	dims := []int{5, 1000, ChunkElems + 7, 2*ChunkElems + 11, 3*ChunkElems + 1}
	for _, spec := range specs {
		codec, err := ParseCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range dims {
			src := tensor.NewVector(dim)
			for i := range src {
				src[i] = math.Sin(float64(i)*0.7) * float64(i%13)
			}
			var msg compactMsg
			resid := tensor.NewVector(dim)
			dec := tensor.NewVector(dim)
			for round := uint64(0); round < 6; round++ {
				p := codec.up()
				roundTrip(p, src, resid, dec, round, &msg)
				ep := &captureEP{}
				sendVia(t, ep, 7, &msg)
				want := p.wireBytes(dim, round)
				if p.kind == CodecTopK {
					want = PackedSparseWireBytes(msg.idx)
					if want != msg.wire {
						t.Fatalf("%s dim=%d round=%d: encodedWireBytes %d disagrees with PackedSparseWireBytes %d",
							spec, dim, round, msg.wire, want)
					}
				} else if want != msg.wire {
					t.Fatalf("%s dim=%d round=%d: encodedWireBytes %d disagrees with ledger formula %d",
						spec, dim, round, msg.wire, want)
				}
				if ep.bytes != want {
					t.Fatalf("%s dim=%d round=%d: wire bytes %d, expected %d", spec, dim, round, ep.bytes, want)
				}
				got := tensor.NewVector(dim)
				got.Fill(999) // recv must zero it
				if err := recvDense(ep, 7, p, got); err != nil {
					t.Fatalf("%s dim=%d round=%d: recv: %v", spec, dim, round, err)
				}
				for i := range got {
					if got[i] != dec[i] {
						t.Fatalf("%s dim=%d round=%d: decode mismatch at %d: wire %v, local %v", spec, dim, round, i, got[i], dec[i])
					}
				}
			}
		}
	}
}

// TestFoldSparseMeanIsAverage: folding top-k messages as entries adds to the
// residual exactly what the dense fold adds — tensor.Average over the
// zero-filled messages, then mean + residual — for one to five messages that
// share positions, leave some out, carry ±0, −Inf and values small enough
// that scaling the sum underflows, and for an empty message; and it leaves
// its accumulator all +0 for the next fold.
func TestFoldSparseMeanIsAverage(t *testing.T) {
	const dim = 300
	rng := tensor.NewRNG(17)
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.Inf(-1)}
	sum := tensor.NewVector(dim) // shared by every fold: each must leave it all +0
	for _, n := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 20; trial++ {
			slots := make([]exchSlot, n)
			dense := make([]tensor.Vector, n)
			for s := range slots {
				dense[s] = tensor.NewVector(dim)
				if trial%7 == 3 && s == n-1 {
					continue // an empty message
				}
				for i := 0; i < dim; i++ {
					if rng.Float64() > 0.2 {
						continue
					}
					v := rng.Norm()
					if rng.Float64() < 0.3 {
						v = special[rng.Intn(len(special))]
					}
					slots[s].msg.idx = append(slots[s].msg.idx, uint32(i))
					slots[s].msg.vals = append(slots[s].msg.vals, v)
					dense[s][i] = v
				}
			}
			resid := tensor.NewVector(dim)
			rng.NormVector(resid, 0, 1)
			for i := 0; i < dim; i += 11 {
				resid[i] = math.Abs(special[i%len(special)]) // a live residual is never −0
			}
			want := resid.Clone()
			mean := tensor.NewVector(dim)
			tensor.Average(mean, dense)
			for i := range want {
				want[i] = mean[i] + want[i]
			}
			foldSparseMean(resid, sum, slots)
			for i := range resid {
				if math.Float64bits(resid[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d messages, trial %d: residual %d = %v, dense fold %v", n, trial, i, resid[i], want[i])
				}
				if math.Float64bits(sum[i]) != 0 {
					t.Fatalf("%d messages, trial %d: the fold left %v in its accumulator at %d", n, trial, sum[i], i)
				}
			}
		}
	}
}

// Error feedback conserves mass: over R rounds of compressing the same
// stream, sum(transmitted) + final residual = sum(inputs).
func TestCodecErrorFeedbackConservation(t *testing.T) {
	for _, spec := range []string{"topk:0.1", "q8", "partial:0.25"} {
		codec, _ := ParseCodec(spec)
		const dim = 257
		src := tensor.NewVector(dim)
		for i := range src {
			src[i] = math.Cos(float64(i) * 1.3)
		}
		var msg compactMsg
		resid := tensor.NewVector(dim)
		dec := tensor.NewVector(dim)
		sum := tensor.NewVector(dim)
		const rounds = 12
		for r := uint64(0); r < rounds; r++ {
			roundTrip(codec.up(), src, resid, dec, r, &msg)
			sum.Add(dec)
		}
		for i := range src {
			want := float64(rounds) * src[i]
			got := sum[i] + resid[i]
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: coordinate %d: transmitted+residual %g, inputs sum %g", spec, i, got, want)
			}
		}
	}
}

// Partial sharing must rotate through the whole vector: after one full
// cycle every coordinate has been transmitted.
func TestPartialWindowCoversVector(t *testing.T) {
	p := profile{kind: CodecPartial, frac: 0.3}
	for _, n := range []int{1, 7, 100, 1001} {
		covered := make([]bool, n)
		k := p.keepCount(n)
		blocks := (n + k - 1) / k
		for r := 0; r < blocks; r++ {
			lo, hi := p.window(n, uint64(r))
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("n=%d: coordinate %d never transmitted in a full cycle", n, i)
			}
		}
	}
}

// TestDecodeSparseChunkRejectsCorrupt: the entry decoder refuses every
// malformed chunk without appending anything, appends a valid chunk's
// entries at their absolute positions, and continues a message's gaps from
// the previous chunk's last position.
func TestDecodeSparseChunkRejectsCorrupt(t *testing.T) {
	const dim = 8
	mk := func(idx []uint32, vals []float64) []byte { return appendSparseChunk(nil, idx, vals, -1) }
	// A chunk already decoded: a refused one must leave it exactly as it is.
	idx, vals := []uint32{0}, []float64{42}
	decode := func(payload []byte, last int) (int, error) {
		var err error
		n := len(idx)
		idx, vals, err = decodeSparseChunk(idx, vals, dim, payload, &last)
		return len(idx) - n, err
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"payload shorter than the count header", []byte{1, 2}},
		// Duplicate and descending indices encode as negative gaps — huge
		// uvarints — and must be rejected as out of range.
		{"duplicate index", mk([]uint32{3, 3}, []float64{1, 2})},
		{"descending indices", mk([]uint32{5, 2}, []float64{1, 2})},
		{"out-of-range index", mk([]uint32{1, 8}, []float64{1, 2})},
		{"count exceeding payload capacity", []byte{255, 0, 0, 0, 1, 2, 3}},
		// The count promises an entry whose gap bytes all have continuation
		// bits.
		{"truncated varint", []byte{1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}},
		// One entry, gap 0, but seven value bytes.
		{"short value section", []byte{1, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		if n, err := decode(tc.payload, -1); err == nil || n != 0 {
			t.Fatalf("%s: appended %d entries, err %v; want a refusal that appends nothing", tc.name, n, err)
		}
	}
	last := -1
	var err error
	idx, vals, err = decodeSparseChunk(idx[:0], vals[:0], dim, mk([]uint32{1, 7}, []float64{4, 5}), &last)
	if err != nil || len(idx) != 2 || idx[0] != 1 || idx[1] != 7 || vals[0] != 4 || vals[1] != 5 {
		t.Fatalf("valid chunk decoded as %v %v, err %v", idx, vals, err)
	}
	if last != 7 {
		t.Fatalf("last position %d, want 7", last)
	}
	// Cross-chunk continuation: a second chunk's gaps continue from the
	// first chunk's final position on both sides.
	if n, err := decode(appendSparseChunk(nil, []uint32{7}, []float64{9}, 7), last); err == nil || n != 0 {
		t.Fatalf("cross-chunk duplicate index: appended %d entries, err %v", n, err)
	}
	if n, err := decode(appendSparseChunk(nil, []uint32{3}, []float64{9}, 2), 2); err != nil || n != 1 || idx[2] != 3 {
		t.Fatalf("cross-chunk continuation: appended %d entries (%v), err %v", n, idx, err)
	}
}

// The packed encoding must beat the canonical 12-byte entries on
// realistic sparse streams (small gaps → 1–2 varint bytes per index).
func TestPackedSparseSmallerThanNominal(t *testing.T) {
	dim := 4 * ChunkElems
	var idx []uint32
	for i := 0; i < dim; i += 97 { // ~1% density, gap 96
		idx = append(idx, uint32(i))
	}
	packed := PackedSparseWireBytes(idx)
	p := profile{kind: CodecTopK, frac: float64(len(idx)) / float64(dim)}
	nominal := p.wireBytes(dim, 0)
	if packed >= nominal {
		t.Fatalf("packed %d bytes not smaller than nominal %d for %d entries", packed, nominal, len(idx))
	}
	// Each entry should cost 9 bytes here (1 gap byte + 8 value bytes).
	want := int64(len(idx)*9) + int64((len(idx)+ChunkElems-1)/ChunkElems)*(HeaderSize+sparseChunkOverhead)
	if packed != want {
		t.Fatalf("packed %d bytes, want %d", packed, want)
	}
}

func TestDecodeQuantChunkRejectsCorrupt(t *testing.T) {
	dst := tensor.NewVector(8)
	good := appendQuantChunk(nil, 8, 0.5, 0.25, []byte{0, 1, 2})
	if n, err := decodeQuantChunk(dst, 0, 8, good); err != nil || n != 3 {
		t.Fatalf("rejected valid chunk: n=%d err=%v", n, err)
	}
	if _, err := decodeQuantChunk(dst, 0, 8, good[:10]); err == nil {
		t.Fatal("accepted truncated header")
	}
	if _, err := decodeQuantChunk(dst, 0, 16, good); err == nil {
		t.Fatal("accepted width mismatch")
	}
	if _, err := decodeQuantChunk(dst, 6, 8, good); err == nil {
		t.Fatal("accepted overflow past message dim")
	}
	nan := appendQuantChunk(nil, 8, 0.5, math.NaN(), []byte{0})
	if _, err := decodeQuantChunk(dst, 0, 8, nan); err == nil {
		t.Fatal("accepted NaN scale")
	}
	inf := appendQuantChunk(nil, 8, math.Inf(1), 0.25, []byte{0})
	if _, err := decodeQuantChunk(dst, 0, 8, inf); err == nil {
		t.Fatal("accepted infinite lo")
	}
	odd := appendQuantChunk(nil, 16, 0, 0.25, []byte{0, 1, 2})
	if _, err := decodeQuantChunk(dst, 0, 16, odd); err == nil {
		t.Fatal("accepted 16-bit levels with odd byte count")
	}
}

func TestDecodeRangeChunkRejectsCorrupt(t *testing.T) {
	dst := tensor.NewVector(8)
	next := 0
	if _, err := decodeRangeChunk(dst, []byte{1, 2}, &next); err == nil {
		t.Fatal("accepted short payload")
	}
	next = 0
	if _, err := decodeRangeChunk(dst, appendRangeChunk(nil, 6, []float64{1, 2, 3}), &next); err == nil {
		t.Fatal("accepted out-of-range block")
	}
	next = 0
	if _, err := decodeRangeChunk(dst, appendRangeChunk(nil, 2, []float64{1, 2}), &next); err != nil {
		t.Fatal("rejected valid block")
	}
	if _, err := decodeRangeChunk(dst, appendRangeChunk(nil, 1, []float64{9}), &next); err == nil {
		t.Fatal("accepted overlapping block")
	}
	if dst[2] != 1 || dst[3] != 2 {
		t.Fatalf("valid block mis-written: %v", dst)
	}
}

func TestCodecFingerprintDistinguishes(t *testing.T) {
	specs := []string{"none", "topk:0.01", "topk:0.02", "q8", "q16", "partial:0.25", "partial:0.25,0.5"}
	seen := map[uint32]string{}
	for _, s := range specs {
		c, _ := ParseCodec(s)
		fp := c.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("fingerprint collision: %q and %q", prev, s)
		}
		seen[fp] = s
	}
}

// c100Dim is the parameter count of the end-to-end benchmark's model
// (nn.ResNetLite(100, 6)): the message size tcp-bsp-topk compresses three
// times a step on rank 0.
const c100Dim = 213060

// codecStream is a steady-state error-feedback stream for one profile: a
// few gradient-like messages fed round-robin through the same residual.
type codecStream struct {
	p          profile
	srcs       []tensor.Vector
	resid, dec tensor.Vector
	msg        compactMsg
	round      uint64
}

func newCodecStream(tb testing.TB, spec string, dim int) *codecStream {
	codec, err := ParseCodec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	s := &codecStream{p: codec.up(), resid: tensor.NewVector(dim), dec: tensor.NewVector(dim)}
	rng := tensor.NewRNG(41)
	for i := 0; i < 4; i++ {
		v := tensor.NewVector(dim)
		rng.NormVector(v, 0, 1e-2)
		s.srcs = append(s.srcs, v)
	}
	for i := 0; i < 8; i++ { // size every buffer off the measured rounds
		s.next()
	}
	return s
}

func (s *codecStream) next() {
	roundTrip(s.p, s.srcs[s.round%uint64(len(s.srcs))], s.resid, s.dec, s.round, &s.msg)
	s.round++
}

// BenchmarkCodecRoundTrip is one error-feedback compression round at the
// benchmark's dimension — fold, select or quantize, emit, reconstruct.
func BenchmarkCodecRoundTrip(b *testing.B) {
	for _, spec := range []string{"topk:0.01", "q8", "partial:0.25"} {
		b.Run(spec, func(b *testing.B) {
			s := newCodecStream(b, spec, c100Dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.next()
			}
		})
	}
}

// A steady-state round trip allocates nothing, under any codec: the message
// buffers are sized by the first rounds and the top-k select keeps its
// histogram on the stack.
func TestCodecRoundTripDoesNotAllocate(t *testing.T) {
	for _, spec := range []string{"topk:0.01", "q8", "q16", "partial:0.25"} {
		s := newCodecStream(t, spec, 3*ChunkElems+41)
		if allocs := testing.AllocsPerRun(20, s.next); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state round trip, want 0", spec, allocs)
		}
	}
}

// A rank that only sends passes no dec: the message, the residual and the
// allocation count must not depend on whether the dense reconstruction was
// asked for.
func TestCodecRoundTripWithoutDec(t *testing.T) {
	for _, spec := range []string{"topk:0.01", "q8", "q16", "partial:0.25"} {
		with, without := newCodecStream(t, spec, ChunkElems+41), newCodecStream(t, spec, ChunkElems+41)
		without.dec = nil
		for r := 0; r < 6; r++ {
			with.next()
			without.next()
			ep, epNoDec := &captureEP{}, &captureEP{}
			sendVia(t, ep, 7, &with.msg)
			sendVia(t, epNoDec, 7, &without.msg)
			if len(ep.frames) != len(epNoDec.frames) {
				t.Fatalf("%s round %d: %d frames with dec, %d without", spec, r, len(ep.frames), len(epNoDec.frames))
			}
			for i := range ep.frames {
				if !bytes.Equal(ep.frames[i].Payload, epNoDec.frames[i].Payload) {
					t.Fatalf("%s round %d: frame %d differs without dec", spec, r, i)
				}
			}
			for i := range with.resid {
				if math.Float64bits(with.resid[i]) != math.Float64bits(without.resid[i]) {
					t.Fatalf("%s round %d: residual %d differs without dec", spec, r, i)
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, without.next); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state round trip without dec, want 0", spec, allocs)
		}
	}
}
