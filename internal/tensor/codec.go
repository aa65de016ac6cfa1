package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Wire codec helpers: Vectors cross process boundaries as little-endian
// IEEE-754 float64 words. internal/comm frames tensor payloads with these
// so both transport backends (and their traffic accounting) share one
// byte-exact definition of a serialized vector.
//
// On a little-endian host a Vector's memory already is its wire encoding,
// so encode and decode are one bulk copy and WireView lends the memory out
// without any copy. Big-endian hosts take the portable per-element path,
// which is also the reference the bulk path is tested against. This file is
// the only place in the repository that uses package unsafe.

// hostLittleEndian reports whether float64 words sit in memory in wire
// byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// VectorWireBytes returns the payload size of n encoded elements.
func VectorWireBytes(n int) int { return n * 8 }

// vectorBytes returns v's backing memory as bytes. The result aliases v.
func vectorBytes(v Vector) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// WireView returns v's wire encoding without copying when the host's
// memory layout is the wire layout (ok), else nil and false. The bytes
// alias v: they are valid, and track v's contents, for as long as v is not
// written.
func WireView(v Vector) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	return vectorBytes(v), true
}

// AppendVector appends v's wire encoding to dst and returns the extended
// slice (append semantics: dst may be nil).
func AppendVector(dst []byte, v Vector) []byte {
	if hostLittleEndian {
		return append(dst, vectorBytes(v)...)
	}
	return appendVectorPortable(dst, v)
}

// DecodeVector decodes len(dst) elements from b into dst. It returns an
// error (never panics) when b is not exactly len(dst) encoded elements.
func DecodeVector(dst Vector, b []byte) error {
	if len(b) != len(dst)*8 {
		return fmt.Errorf("tensor: vector payload is %d bytes, want %d", len(b), len(dst)*8)
	}
	if hostLittleEndian {
		copy(vectorBytes(dst), b)
		return nil
	}
	decodeVectorPortable(dst, b)
	return nil
}

// appendVectorPortable is AppendVector one element at a time, correct on
// any byte order.
func appendVectorPortable(dst []byte, v Vector) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeVectorPortable decodes len(dst) elements from b, which must hold at
// least that many, one element at a time.
func decodeVectorPortable(dst Vector, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}
