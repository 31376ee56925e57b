// Package testalloc measures the bytes a call allocates, for allocation
// bounds in tests that must not flake.
//
// runtime.MemStats.TotalAlloc is process-wide: a delta taken around one call
// also counts whatever another goroutine allocated meanwhile — a parallel
// test, a finalizer, a package's background worker — and a GC that runs
// mid-call can make its own bookkeeping look like the call's. Bytes settles
// the process first, as testing.AllocsPerRun does (a GC, then GOMAXPROCS(1)
// for the measured calls, so nothing else runs beside them), and takes the
// fewest bytes of a few calls: noise only ever adds bytes, and a call that
// always allocates still shows its allocation on every call.
package testalloc

import "runtime"

// Calls is how many times Bytes runs f.
const Calls = 3

// Bytes returns the fewest bytes one call of f allocated over Calls calls,
// each made after a GC with GOMAXPROCS(1).
func Bytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range Calls {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
