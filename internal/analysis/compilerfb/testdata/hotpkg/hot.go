// Package hotpkg is the fixture corpus for the compiler-feedback gate
// tests: ScanHotFuncs indexes the annotated functions below, and the pinned
// diagnostics in ../inline_m2.txt, ../check_bce.txt and ../asm_amd64.txt
// reference these line numbers — keep them stable (append only).
package hotpkg

type table struct {
	keys []int32
	mask int
}

// Upsert is a hotpath method fixture (lines 15-24).
//
//spgemm:hotpath
func (t *table) Upsert(key int32) int32 {
	s := int(key) & t.mask
	for {
		k := t.keys[s]
		if k == key || k == -1 {
			return k
		}
		s = (s + 1) & t.mask
	}
}

// scatter is a hotpath plain-function fixture (lines 29-33).
//
//spgemm:hotpath
func scatter(dst []int32, idx []int32) {
	for i, s := range idx {
		dst[i] = s
	}
}

// setup is intentionally un-annotated: diagnostics attributed to it must not
// be budgeted (lines 37-39).
func setup(n int) []int32 {
	return make([]int32, n)
}

// push is a hotpath self-append fixture: the amortized growth the reserve
// discipline allows still calls runtime.growslice (lines 45-47).
//
//spgemm:hotpath
func (t *table) push(key int32) {
	t.keys = append(t.keys, key)
}

type adder interface{ Add(a, b int32) int32 }

// fold is a hotpath fixture that calls through an interface (lines 54-59).
//
//spgemm:hotpath
func fold(r adder, xs []int32) (s int32) {
	for _, x := range xs {
		s = r.Add(s, x)
	}
	return s
}

// newTable is intentionally un-annotated and allocates: its calls must not
// be budgeted (lines 63-65).
func newTable() *table {
	return &table{mask: 15}
}
