//go:build !unix

package tensor

import "testing"

// guardedArena without mmap is a plain slab: the bit-equality checks still
// run, the out-of-bounds proof needs a unix host.
func guardedArena(t testing.TB, n int) Vector { return NewVector(n) }
