package tensor

import (
	"bytes"
	"math"
	"testing"
)

// wireChunk mirrors comm.ChunkElems (tensor cannot import comm): the
// lengths around it are the ones the streaming layer actually produces.
const wireChunk = 32 * 1024

// awkwardFloats are the values a bit-exact codec must not normalize.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormals
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.NaN(),
	math.Float64frombits(0x7FF0000000000001), // signalling NaN, smallest payload
	math.Float64frombits(0x7FF8DEADBEEF0001), // quiet NaN with a payload
	math.Float64frombits(0xFFFFFFFFFFFFFFFF), // negative NaN, all payload bits
	1, -1, math.Pi,
}

// TestBulkCodecMatchesPortable holds the bulk AppendVector/DecodeVector (one
// memory copy on a little-endian host) to the portable per-element encoding
// byte for byte, and WireView to the same bytes without a copy. The
// portable functions are called directly so that they are exercised on
// little-endian hosts too, where nothing else reaches them.
func TestBulkCodecMatchesPortable(t *testing.T) {
	rng := NewRNG(9)
	for _, n := range []int{0, 1, 2, 7, 8, 3 * len(awkwardFloats), wireChunk - 1, wireChunk, wireChunk + 1, 2*wireChunk + 3} {
		v := NewVector(n)
		rng.NormVector(v, 0, 1e3)
		for i := 0; i < n; i += 3 {
			v[i] = awkwardFloats[(i/3)%len(awkwardFloats)]
		}

		prefix := []byte{0xAA, 0xBB, 0xCC} // append semantics, and an odd offset
		want := appendVectorPortable(append([]byte(nil), prefix...), v)
		got := AppendVector(append([]byte(nil), prefix...), v)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendVector differs from the portable encoding", n)
		}
		view, viewOK := WireView(v)
		if viewOK {
			if !bytes.Equal(view, want[len(prefix):]) {
				t.Fatalf("n=%d: WireView differs from the portable encoding", n)
			}
		} else if hostLittleEndian {
			t.Fatal("WireView refused on a little-endian host")
		}

		// Decode from a sub-slice that starts at an odd byte offset.
		payload := got[len(prefix):]
		bulk, portable := NewVector(n), NewVector(n)
		if err := DecodeVector(bulk, payload); err != nil {
			t.Fatalf("n=%d: DecodeVector: %v", n, err)
		}
		decodeVectorPortable(portable, payload)
		if !bitEqual(bulk, portable) || !bitEqual(bulk, v) {
			t.Fatalf("n=%d: decode does not reproduce the source bits", n)
		}
		if n > 0 {
			if err := DecodeVector(bulk, payload[:len(payload)-1]); err == nil {
				t.Fatalf("n=%d: DecodeVector accepted a short payload", n)
			}
			if err := DecodeVector(bulk[:n-1], payload); err == nil {
				t.Fatalf("n=%d: DecodeVector accepted a long payload", n)
			}
		}
		if viewOK && n > 0 {
			v[n-1] = -v[n-1] - 1 // the view aliases v: it must follow
			if !bytes.Equal(view, appendVectorPortable(nil, v)) {
				t.Fatalf("n=%d: WireView is a copy, not a view", n)
			}
		}
	}
}
