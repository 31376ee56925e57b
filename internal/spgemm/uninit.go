package spgemm

import (
	"math"
	"unsafe"

	"repro/internal/semiring"
)

// plain is the element types of a product's arrays: none holds a pointer, so
// an array of them may start as whatever bytes its memory held before.
type plain interface {
	int32 | semiring.Value
}

// mallocgc is the runtime's allocator, whose signature the runtime keeps for
// callers outside it (its own comment says not to change it). A nil type asks
// for a block the collector does not scan, and needzero false for one it does
// not clear.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// uninit returns an array of n entries whose contents are whatever its memory
// held: make's allocation without make's clearing pass, which a product pays
// on one goroutine while the workers wait and then overwrites entry by entry.
// It allocates what make would, size class for size class. A caller must
// write every entry it lets anything read.
func uninit[T plain](n int64) []T {
	size := unsafe.Sizeof(*new(T))
	if n == 0 || uint64(n) > math.MaxInt/uint64(size) { // make's panic for a length no allocation holds
		return make([]T, n)
	}
	return unsafe.Slice((*T)(mallocgc(uintptr(n)*uintptr(size), nil, false)), n)
}
