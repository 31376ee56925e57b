package spgemm

import (
	"sync"
	"unsafe"

	"repro/internal/semiring"
)

// Tile geometry: how wide a column tile (and the dense accumulator that
// sweeps it) may be while staying cache-resident. The width used to be the
// magic constant defaultSPABlock; it is now derived from the cache
// parameters the memmodel package installs at init from its fitted memory
// tier, with the constant kept only as the fallback for binaries that never
// link memmodel.
//
// The derivation is the working-set argument of Patwary et al. (ISC 2015)
// and DBCSR: a dense accumulator over w columns costs w value slots plus a
// w-entry generation-stamp array plus (worst case) a w-entry index list, and
// it must share the L2 with the streamed rows of B, so only about half the
// cache is budgeted to it. The floor comes from the tier's latency-bandwidth
// product: tiles narrower than that turn B-row stanza reads latency-bound,
// which is the regime Figure 5 of the paper shows bandwidth collapsing in.

// CacheParams describes the cache level the tiled kernels size their
// accumulators for. Installed once at init by memmodel (see
// memmodel.InstallCacheParams); the zero value means "nothing installed" and
// makes every width query fall back to the legacy constant.
type CacheParams struct {
	// L2Bytes is the per-core L2 capacity the accumulator must fit into.
	L2Bytes int
	// LineBytes is the cache line size.
	LineBytes int
	// MinTileCols is the narrowest tile worth creating: below it, per-tile
	// B-row stanzas are too short to amortize memory latency.
	MinTileCols int
}

var (
	cacheParamsMu sync.RWMutex
	cacheParams   CacheParams
	haveParams    bool
)

// SetCacheParams installs the cache parameters the tile-width derivation
// uses. Called by memmodel at init; tests may install synthetic geometries.
// Parameters with a non-positive L2 size are rejected (the previous
// installation, if any, stays in effect).
func SetCacheParams(p CacheParams) {
	if p.L2Bytes <= 0 {
		return
	}
	if p.LineBytes <= 0 {
		p.LineBytes = 64
	}
	if p.MinTileCols <= 0 {
		p.MinTileCols = 1024
	}
	cacheParamsMu.Lock()
	cacheParams = p
	haveParams = true
	cacheParamsMu.Unlock()
}

// CurrentCacheParams returns the installed cache parameters and whether any
// have been installed.
//
// Called once per Multiply during planning, never per row, so the defer is
// acceptable here; do not add //spgemm:hotpath (deferhot would reject it).
func CurrentCacheParams() (CacheParams, bool) {
	cacheParamsMu.RLock()
	defer cacheParamsMu.RUnlock()
	return cacheParams, haveParams
}

// TileColsForElem returns the analytic column-tile width for a dense
// accumulator with elemBytes-wide values: the largest power of two whose
// value+stamp+index working set fits half the installed L2, clamped below by
// the latency-amortization floor. With no parameters installed it returns
// defaultTileCols.
func TileColsForElem(elemBytes int) int {
	p, ok := CurrentCacheParams()
	if !ok {
		return defaultTileCols
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	// Value slot + uint32 generation stamp + int32 index-list entry.
	perCol := elemBytes + 8
	budget := p.L2Bytes / 2
	w := floorPow2(budget / perCol)
	if w < p.MinTileCols {
		w = p.MinTileCols
	}
	return w
}

// defaultTileCols holds the dense value+stamp arrays of one float64 tile in
// ~384 KiB (32768 × 12 bytes) — what the analytic rule gives for a 1 MiB
// KNL-tile L2 slice.
const defaultTileCols = 32768

// tileColsFor is TileColsForElem for a concrete value type.
func tileColsFor[V semiring.Value]() int {
	var zero V
	return TileColsForElem(int(unsafe.Sizeof(zero)))
}

// tileGeometry resolves the effective tile width and heavy-row flop
// threshold for one call: explicit Options overrides win, otherwise the
// analytic width. The default threshold equals the tile width — a row whose
// accumulator bound exceeds one cache-resident tile is exactly a row the
// single-pass hash path cannot keep in cache.
func (o *OptionsG[V]) tileGeometry() (tileCols int, heavyFlop int64) {
	tileCols = o.TileCols
	if tileCols <= 0 {
		tileCols = tileColsFor[V]()
	}
	if tileCols < 1 {
		tileCols = 1
	}
	heavyFlop = o.TileHeavyFlop
	if heavyFlop <= 0 {
		heavyFlop = int64(tileCols)
	}
	return tileCols, heavyFlop
}

// floorPow2 returns the largest power of two not exceeding n (minimum 1).
func floorPow2(n int) int {
	w := 1
	for w<<1 <= n && w<<1 > 0 {
		w <<= 1
	}
	return w
}
