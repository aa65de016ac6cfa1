//go:build unix

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena returns a slab of at least n float64s with an inaccessible
// page on either side: a kernel that reads or writes one byte before
// slab[0] or after slab[len-1] takes a fault the test binary dies of.
// Operands are cut flush against one end or the other (see place).
func guardedArena(t testing.TB, n int) Vector {
	page := syscall.Getpagesize()
	body := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:page], mem[page+body:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[page])), body/8)
}
