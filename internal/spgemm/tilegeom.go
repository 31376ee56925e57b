package spgemm

// tileCols is how wide a column tile (and the dense accumulator that sweeps
// it) may be while staying cache-resident. It is the working-set argument of
// Patwary et al. (ISC 2015) and DBCSR: a dense accumulator over w columns
// costs w value slots plus a w-entry uint32 generation-stamp array plus
// (worst case) a w-entry int32 index list, and it must share the L2 with the
// streamed rows of B, so only about half the cache is budgeted to it —
// evaluated for the cache level the paper sizes its accumulators for, the
// 1 MiB KNL per-tile L2 slice: floorPow2((1 MiB / 2) / (elem + 8)), which is
// 32768 for every value width from 1 to 8 bytes (a float64 tile's value+stamp
// arrays take 384 KiB). The floor under it comes from the memory tier's
// latency-bandwidth product — tiles narrower than that turn B-row stanza
// reads latency-bound, the regime Figure 5 of the paper shows bandwidth
// collapsing in: DDR's 90 GB/s × 120 ns in flight over 12-byte CSR entries,
// rounded up, is 1024 columns. A constant, not the host's L2: every binary
// cuts the same tiles, so tiled results and the checked-in benchmark numbers
// depend neither on the machine nor on what a binary links
// (TestTileColsIsTheDerivation keeps the arithmetic honest).
const tileCols = 32768

// tileGeometry resolves the effective tile width and heavy-row flop
// threshold for one call: explicit Options overrides win, otherwise
// tileCols. The default threshold equals the tile width — a row whose
// accumulator bound exceeds one cache-resident tile is exactly a row the
// single-pass hash path cannot keep in cache.
func (o *OptionsG[V]) tileGeometry() (cols int, heavyFlop int64) {
	cols = o.TileCols
	if cols <= 0 {
		cols = tileCols
	}
	heavyFlop = o.TileHeavyFlop
	if heavyFlop <= 0 {
		heavyFlop = int64(cols)
	}
	return cols, heavyFlop
}
