package memmodel

import (
	"os"
	"strconv"
	"strings"

	"repro/internal/spgemm"
)

// Tile-geometry feed: memmodel owns the machine model (tiers, cache
// geometry), spgemm owns the kernels, and the import runs memmodel→spgemm,
// so the cache parameters the tiled kernels size their accumulators from are
// pushed into spgemm here rather than pulled (which would cycle the
// imports). Any binary that links memmodel gets analytic tile widths at
// init; binaries that don't fall back to spgemm's legacy constant.

// CacheParamsFrom derives the tiled kernels' cache parameters from a memory
// tier and a cache geometry. The L2 capacity bounds the accumulator working
// set; the minimum tile width comes from the tier's latency-bandwidth
// product — the bytes that must be in flight to keep the memory pipe busy —
// so that per-tile row stanzas of B stay bandwidth-bound rather than
// latency-bound (each CSR entry is an int32 column plus a float64 value,
// 12 bytes).
func CacheParamsFrom(t Tier, c CacheConfig) spgemm.CacheParams {
	const entryBytes = 12
	inFlight := t.PeakGBps * t.LatencyNs // GB/s × ns = bytes
	min := ceilPow2(int(inFlight) / entryBytes)
	if min < 256 {
		min = 256
	}
	if min > 1<<16 {
		min = 1 << 16
	}
	return spgemm.CacheParams{
		L2Bytes:     c.SizeBytes,
		LineBytes:   c.LineBytes,
		MinTileCols: min,
	}
}

// InstallCacheParams derives and installs the parameters into spgemm.
func InstallCacheParams(t Tier, c CacheConfig) {
	spgemm.SetCacheParams(CacheParamsFrom(t, c))
}

// init installs the deterministic default: the KNL per-tile L2 slice (the
// cache level the paper sizes its accumulators for) with the DDR tier's
// latency-bandwidth floor. Deliberately NOT the host's detected L2 — the
// benchmark snapshots in CI must reproduce the same tile geometry on every
// machine. Hosts that want native geometry call InstallHostCacheParams
// explicitly (opt-in).
func init() {
	InstallCacheParams(DefaultDDR, KNLTileL2)
}

// DetectL2Bytes reads the host's per-core L2 capacity from sysfs. Returns
// false when the hierarchy is not exposed (non-Linux, restricted container).
func DetectL2Bytes() (int, bool) {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return 0, false
	}
	s := strings.TrimSpace(string(data))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1024, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// InstallHostCacheParams re-derives the tile geometry from the host's
// detected L2 (keeping the given tier's latency-bandwidth floor) and
// installs it. Reports whether detection succeeded; on failure nothing
// changes. Opt-in precisely because it makes tile widths machine-dependent.
func InstallHostCacheParams(t Tier) bool {
	l2, ok := DetectL2Bytes()
	if !ok {
		return false
	}
	c := KNLTileL2
	c.SizeBytes = l2
	InstallCacheParams(t, c)
	return true
}

// ceilPow2 returns the smallest power of two ≥ n (minimum 1).
func ceilPow2(n int) int {
	w := 1
	for w < n && w > 0 {
		w <<= 1
	}
	return w
}
