package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Tiled SpGEMM (AlgTiled): cache-conscious execution for skewed inputs.
//
// The hash kernel's implicit assumption is that one row's accumulator fits
// in cache. On power-law inputs (G500/R-MAT) the heavy rows break it: their
// tables spill out of L2, every probe becomes a memory round-trip, and the
// per-row sort of the widest rows dominates. This mode splits B into column
// tiles sized by the installed cache parameters (tilegeom.go) and decomposes
// each heavy row into (row, tile) units: a unit accumulates into a dense
// cache-resident SPA over one tile's column range — direct indexing, no
// collisions, O(1) generation-stamp reset — and units are flop-balanced over
// workers independently of rows, which also fixes the load imbalance a
// single mega-row causes. Light rows keep the single-pass hash path
// unchanged.
//
// Output stitching is free: tiles cover ascending disjoint column ranges, so
// a heavy row's units extract (sorted within the tile, biased to global
// column ids) directly into the row's final [rowPtr + earlier-tiles-nnz)
// slice of the output — in order, with no merge pass and no temp copy.

// tiledSplit is the column-split view of B: tile t holds B's entries whose
// columns fall in [t·tileCols, (t+1)·tileCols), with tile-local column ids,
// stored in flat arrays (nTiles row-pointer blocks of rows+1 entries each,
// holding global offsets into the shared colIdx/vals arrays).
type tiledSplit[V semiring.Value] struct {
	rowPtr []int64
	colIdx []int32
	vals   []V
	rows   int
}

// rowRange returns the entry range of row i within tile t.
//
//spgemm:hotpath
func (s *tiledSplit[V]) rowRange(t, i int) (int64, int64) {
	// One two-element slice check instead of two index checks; the
	// constant indexes below are then provably in bounds.
	base := t*(s.rows+1) + i
	rp := s.rowPtr[base : base+2]
	return rp[0], rp[1]
}

// splitTiles column-splits B into nTiles tiles of width tileCols using the
// context's flat buffers: one pass counts per-(tile, row) entries into the
// flat row-pointer array, one running sum converts the counts to global
// offsets (tile-start slots contribute zero, so the sum carries across tile
// boundaries), and a second pass scatters tile-local column ids and values
// through a separate cursor copy. O(nnz(B)) work, zero allocations at steady
// state. When perm is non-nil (plan builds) it receives, per split entry,
// the index of the originating B entry, so a later execution can re-gather
// fresh values without redoing the split.
func splitTiles[V semiring.Value](ctx *ContextG[V], b *matrix.CSRG[V], tileCols, nTiles int, perm []int64) tiledSplit[V] {
	nnz := int(b.RowPtr[b.Rows])
	rows1 := b.Rows + 1
	rpLen := nTiles * rows1
	ctx.tileRowPtr = ensureI64(ctx.tileRowPtr, rpLen)
	ctx.tileCur = ensureI64(ctx.tileCur, rpLen)
	ctx.tileIdx = ensureI32(ctx.tileIdx, nnz)
	vals := ctx.tileValBuf(nnz)
	rp := ctx.tileRowPtr
	for j := range rp {
		rp[j] = 0
	}
	for i := 0; i < b.Rows; i++ {
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			t := int(b.ColIdx[p]) / tileCols
			rp[t*rows1+i+1]++
		}
	}
	var acc int64
	for j := 0; j < rpLen; j++ {
		acc += rp[j]
		rp[j] = acc
	}
	cur := ctx.tileCur
	copy(cur[:rpLen], rp[:rpLen])
	idx := ctx.tileIdx
	for i := 0; i < b.Rows; i++ {
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			col := b.ColIdx[p]
			t := int(col) / tileCols
			slot := t*rows1 + i
			q := cur[slot]
			idx[q] = col - int32(t*tileCols)
			vals[q] = b.Val[p]
			if perm != nil {
				perm[q] = p
			}
			cur[slot] = q + 1
		}
	}
	return tiledSplit[V]{rowPtr: rp[:rpLen], colIdx: idx[:nnz], vals: vals, rows: b.Rows}
}

// tiledUnitSymbolic counts the distinct output columns of one (row, tile)
// unit with a dense accumulator over the tile's column range.
//
//spgemm:hotpath
func tiledUnitSymbolic[V semiring.Value](spa *accum.SPAG[V], a *matrix.CSRG[V], tiles *tiledSplit[V], row, tile int) int64 {
	spa.Reset()
	// Ranging over row sub-slices collapses the per-entry CSR bounds
	// checks into one slice check per row segment.
	alo, ahi := a.RowPtr[row], a.RowPtr[row+1]
	for _, k := range a.ColIdx[alo:ahi] {
		qlo, qhi := tiles.rowRange(tile, int(k))
		for _, c := range tiles.colIdx[qlo:qhi] {
			spa.InsertSymbolic(c)
		}
	}
	return int64(spa.Len())
}

// tiledUnitNumeric accumulates one (row, tile) unit and extracts it directly
// into the unit's slice of the output row, biasing tile-local columns back
// to global ids.
//
//spgemm:hotpath
func tiledUnitNumeric[V semiring.Value, R semiring.Ring[V]](ring R, spa *accum.SPAG[V], a *matrix.CSRG[V], tiles *tiledSplit[V], row, tile int, cols []int32, vals []V, bias int32, sorted bool) {
	spa.Reset()
	alo, ahi := a.RowPtr[row], a.RowPtr[row+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	for x, k := range acols {
		av := avals[x]
		qlo, qhi := tiles.rowRange(tile, int(k))
		tcols := tiles.colIdx[qlo:qhi]
		tvals := tiles.vals[qlo:qhi]
		for y, c := range tcols {
			prod := ring.Mul(av, tvals[y])
			slot, fresh := spa.Upsert(c)
			if fresh {
				*slot = prod
			} else {
				*slot = ring.Add(*slot, prod)
			}
		}
	}
	if sorted {
		spa.ExtractSortedBias(cols, vals, bias)
	} else {
		spa.ExtractUnsortedBias(cols, vals, bias)
	}
}

// lightRows counts the rows of [lo, hi) the light pass owns: every row but
// the heavy ones, whose weight was zeroed.
func lightRows(lightFlop, flopRow []int64, lo, hi int) (n int64) {
	for i := lo; i < hi; i++ {
		if lightFlop[i] == flopRow[i] {
			n++
		}
	}
	return n
}

// tiledMultiply is the AlgTiled driver.
func tiledMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	workers := opt.workers()
	if workers > a.Rows && a.Rows > 0 {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)

	flopRow := ctx.perRowFlop(a, b)
	tileCols, heavyFlop := opt.tileGeometry()
	nTiles := 1
	if b.Cols > tileCols {
		nTiles = (b.Cols + tileCols - 1) / tileCols
	}

	// Heavy-row detection: a row whose accumulator bound exceeds the
	// threshold cannot stay cache-resident on the single-pass hash path.
	// With a single tile there is nothing to split, so every row is light.
	nHeavy := 0
	if nTiles > 1 {
		for i := 0; i < a.Rows; i++ {
			if capBound(flopRow[i], b.Cols) > heavyFlop {
				nHeavy++
			}
		}
	}
	heavyRow := func(i int) bool {
		return nHeavy > 0 && capBound(flopRow[i], b.Cols) > heavyFlop
	}

	// Light rows are flop-balanced as usual; heavy rows are zeroed out of
	// the weights so the light partition spreads only the work the light
	// pass will actually do.
	lightFlop := flopRow
	if nHeavy > 0 {
		lightFlop = ctx.lightFlopBuf(a.Rows)
		for i, f := range flopRow {
			if capBound(f, b.Cols) > heavyFlop {
				lightFlop[i] = 0
			} else {
				lightFlop[i] = f
			}
		}
	}
	offsets := ctx.partition(lightFlop, workers, workers)

	// Column-split B and enumerate the heavy (row, tile) units with their
	// per-unit flop (the unit scheduling weights).
	var (
		tiles    tiledSplit[V]
		unitRow  []int32
		unitTile []int32
		unitFlop []int64
		unitNnz  []int64
		unitOff  []int64
		nUnits   int
	)
	if nHeavy > 0 {
		tiles = splitTiles(ctx, b, tileCols, nTiles, nil)
		nUnits = nHeavy * nTiles
		unitRow, unitTile, unitFlop, unitNnz, unitOff = ctx.unitBufs(nUnits)
		u := 0
		for i := 0; i < a.Rows; i++ {
			if !heavyRow(i) {
				continue
			}
			base := u
			for t := 0; t < nTiles; t++ {
				unitRow[base+t] = int32(i)
				unitTile[base+t] = int32(t)
				unitFlop[base+t] = 0
			}
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := int(a.ColIdx[p])
				for t := 0; t < nTiles; t++ {
					lo, hi := tiles.rowRange(t, k)
					unitFlop[base+t] += hi - lo
				}
			}
			u += nTiles
		}
	}
	pt.tick(PhasePartition)

	rowNnz := ctx.rowNnzBuf(a.Rows)

	// Symbolic, light rows: the hash path of hashFast; heavy rows carry a
	// zero weight and are skipped.
	ctx.runWorkers("tiled-symbolic", workers, func(w int) {
		ctx.hashSymbolic(w, a, b, lightFlop, offsets[w], offsets[w+1], rowNnz, pt.worker(w))
	})

	// Symbolic, heavy units: flop-balanced unit-grain scheduling; each unit
	// counts into a dense tile-wide accumulator.
	if nUnits > 0 {
		ctx.balancedUnits("tiled-symbolic-heavy", unitFlop, workers, func(w, ulo, uhi int) {
			if ulo >= uhi {
				return
			}
			spa := ctx.spaTable(w, tileCols)
			for u := ulo; u < uhi; u++ {
				if unitFlop[u] == 0 {
					unitNnz[u] = 0
					continue
				}
				unitNnz[u] = tiledUnitSymbolic(spa, a, &tiles, int(unitRow[u]), int(unitTile[u]))
			}
		})
		for u := 0; u < nUnits; u++ {
			rowNnz[unitRow[u]] += unitNnz[u]
		}
	}
	pt.tick(PhaseSymbolic)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	// Stitch offsets: units of a row appear consecutively in ascending tile
	// order, so each unit's output slice starts at the row base plus the
	// sizes of the row's earlier tiles — one serial scan, no temp buffers.
	for u := 0; u < nUnits; u++ {
		if unitTile[u] == 0 {
			unitOff[u] = rowPtr[unitRow[u]]
		} else {
			unitOff[u] = unitOff[u-1] + unitNnz[u-1]
		}
	}
	pt.tick(PhaseAlloc)

	// Numeric, light rows.
	ctx.runWorkers("tiled-numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		flop, max := rangeFlopMax(lightFlop, lo, hi)
		h := newHashNumeric(ring, ctx.hashTable(w, capBound(max, b.Cols)), a, b, c.ColIdx, c.Val, !opt.Unsorted)
		h.rows(lightFlop, c.RowPtr, lo, hi, 0)
		if ws := pt.worker(w); ws != nil {
			ws.Rows += lightRows(lightFlop, flopRow, lo, hi)
			ws.Flop += flop
			h.report(ws)
		}
	})

	// Numeric, heavy units: each unit writes its tile's slice of the row
	// straight into the output at the stitched offset. L2Overflows counts
	// the units routed through tiling (the rows that would have overflowed
	// the cache-resident accumulator on the hash path).
	if nUnits > 0 {
		ctx.balancedUnits("tiled-numeric-heavy", unitFlop, workers, func(w, ulo, uhi int) {
			if ulo >= uhi {
				return
			}
			spa := ctx.spaTable(w, tileCols)
			fa, ftl, fspa, fastF64 := ptF64Tiled(ring, a, &tiles, spa)
			var fc *matrix.CSRG[float64]
			if fastF64 {
				fc, _ = any(c).(*matrix.CSRG[float64])
				fastF64 = fc != nil
			}
			var flop, rows int64
			for u := ulo; u < uhi; u++ {
				t := int(unitTile[u])
				if t == 0 {
					rows++
				}
				if unitNnz[u] == 0 {
					continue
				}
				start := unitOff[u]
				cols := c.ColIdx[start : start+unitNnz[u]]
				if fastF64 {
					tiledUnitNumericF64(fspa, fa, ftl, int(unitRow[u]), t, cols, fc.Val[start:start+unitNnz[u]], int32(t*tileCols), !opt.Unsorted)
				} else {
					tiledUnitNumeric(ring, spa, a, &tiles, int(unitRow[u]), t, cols, c.Val[start:start+unitNnz[u]], int32(t*tileCols), !opt.Unsorted)
				}
				flop += unitFlop[u]
			}
			if ws := pt.worker(w); ws != nil {
				ws.Rows += rows
				ws.Flop += flop
				ws.L2Overflows += int64(uhi - ulo)
			}
		})
	}
	pt.tick(PhaseNumeric)
	pt.finish()
	return c, nil
}
