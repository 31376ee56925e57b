package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Tiled SpGEMM (AlgTiled): cache-conscious execution for skewed inputs.
//
// The hash kernel's implicit assumption is that one row's accumulator fits
// in cache. On power-law inputs (G500/R-MAT) the heavy rows break it: their
// tables spill out of L2, every probe becomes a memory round-trip, and the
// per-row sort of the widest rows dominates. This mode splits B into column
// tiles of the cache-resident width (tilegeom.go) and decomposes
// each heavy row into (row, tile) units: a unit is the whole-row kernel of
// hashrow.go run against one tile of B, counted with stamps and folded into
// a dense cache-resident SPA over the tile's column range — direct indexing,
// no collisions, O(1) generation-stamp reset — and units are flop-balanced
// over workers independently of rows, which also fixes the load imbalance a
// single mega-row causes. Light rows keep the whole-row pass unchanged.
//
// Output stitching is free: tiles cover ascending disjoint column ranges, so
// a heavy row's units land (sorted within the tile, biased to global column
// ids) directly in the row's final [rowPtr + earlier-tiles-nnz) slice of the
// output — in order, with no merge pass and no temp copy.

// tiledSplit is the column-split view of B: tile t is a CSR over B's rows
// holding B's entries whose columns fall in [t·tileCols, (t+1)·tileCols),
// with tile-local column ids. The tiles share flat arrays (nTiles row-pointer
// blocks of rows+1 entries each, holding offsets into shared colIdx/vals).
type tiledSplit[V semiring.Value] []matrix.CSRG[V]

// splitTiles column-splits B into nTiles tiles of width tileCols using the
// context's flat buffers: one pass counts per-(tile, row) entries into the
// flat row-pointer array, one running sum converts the counts to global
// offsets (tile-start slots contribute zero, so the sum carries across tile
// boundaries), and a second pass scatters tile-local column ids and values
// through a separate cursor copy. O(nnz(B)) work, zero allocations at steady
// state.
func splitTiles[V semiring.Value](ctx *ContextG[V], b *matrix.CSRG[V], tileCols, nTiles int) tiledSplit[V] {
	nnz := int(b.RowPtr[b.Rows])
	rows1 := b.Rows + 1
	rpLen := nTiles * rows1
	ctx.tileRowPtr = ensureLen(ctx.tileRowPtr, rpLen)
	ctx.tileCur = ensureLen(ctx.tileCur, rpLen)
	ctx.tileIdx = ensureLen(ctx.tileIdx, nnz)
	ctx.tileVal = ensureLen(ctx.tileVal, nnz)
	vals := ctx.tileVal
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
			cur[slot] = q + 1
		}
	}
	ctx.tiles = ensureLen(ctx.tiles, nTiles)
	for t := range ctx.tiles {
		ctx.tiles[t] = matrix.CSRG[V]{Rows: b.Rows, Cols: tileCols, RowPtr: rp[t*rows1 : (t+1)*rows1], ColIdx: idx[:nnz], Val: vals[:nnz]}
	}
	return ctx.tiles
}

// heavy reports whether row i is routed through tiling: its weight was
// zeroed out of lightFlop, and a heavy row's flop is never zero.
func (in *inspection[V]) heavy(i int) bool { return in.lightFlop[i] != in.flopRow[i] }

// lightRows counts the rows of [lo, hi) the whole-row hash pass owns: every
// row but the heavy ones.
func (in *inspection[V]) lightRows(lo, hi int) (n int64) {
	if len(in.unitRow) == 0 {
		return int64(hi - lo)
	}
	for i := lo; i < hi; i++ {
		if !in.heavy(i) {
			n++
		}
	}
	return n
}

// inspectTiles is the tiled part of inspect's partition phase. A row whose
// accumulator bound exceeds the threshold cannot stay cache-resident on the
// single-pass hash path; with a single tile there is nothing to split, so
// every row is light. When there are heavy rows it zeroes them out of
// lightFlop — so the light partition spreads only the work the light pass
// will actually do — column-splits B, and enumerates the heavy (row, tile)
// units with their flop (the unit scheduling weights) and partition.
func (in *inspection[V]) inspectTiles(ctx *ContextG[V], a, b *matrix.CSRG[V], opt *OptionsG[V]) {
	tileCols, heavyFlop := opt.tileGeometry()
	in.tileCols = tileCols
	nTiles := (b.Cols + tileCols - 1) / tileCols
	if nTiles <= 1 {
		return
	}
	flopRow := in.flopRow
	nHeavy := 0
	for _, f := range flopRow {
		if capBound(f, b.Cols) > heavyFlop {
			nHeavy++
		}
	}
	if nHeavy == 0 {
		return
	}
	ctx.lightFlop = ensureLen(ctx.lightFlop, a.Rows)
	in.lightFlop = ctx.lightFlop
	for i, f := range flopRow {
		if capBound(f, b.Cols) > heavyFlop {
			f = 0
		}
		in.lightFlop[i] = f
	}

	in.tiles = splitTiles(ctx, b, tileCols, nTiles)
	in.unitRow, in.unitTile, in.unitFlop, in.unitNnz, in.unitOff = ctx.unitBufs(nHeavy * nTiles)
	base := 0
	for i := 0; i < a.Rows; i++ {
		if !in.heavy(i) {
			continue
		}
		for t := 0; t < nTiles; t++ {
			in.unitRow[base+t] = int32(i)
			in.unitTile[base+t] = int32(t)
			in.unitFlop[base+t] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := int(a.ColIdx[p])
			for t := 0; t < nTiles; t++ {
				rp := in.tiles[t].RowPtr
				in.unitFlop[base+t] += rp[k+1] - rp[k]
			}
		}
		base += nTiles
	}
	in.uoffsets = ctx.partitionUnits(in.unitFlop, in.workers, in.workers)
}

// heavySymbolic sizes the heavy units — flop-balanced unit-grain scheduling,
// each unit counting with the stamps of a tile-wide SPA — and adds them to
// their rows' sizes. No-op without heavy rows.
func (in *inspection[V]) heavySymbolic(ctx *ContextG[V], a *matrix.CSRG[V], rowNnz []int64) {
	if len(in.unitRow) == 0 {
		return
	}
	ctx.runWorkers(in.workers, func(w int) {
		ulo, uhi := in.uoffsets[w], in.uoffsets[w+1]
		if ulo >= uhi {
			return
		}
		rc := rowCounter[V]{stamps: ctx.spaTable(w, in.tileCols).Marks()} // numeric's SPA over the tile
		for u := ulo; u < uhi; u++ {
			in.unitNnz[u] = 0
			if in.unitFlop[u] != 0 {
				in.unitNnz[u] = rc.count(a, &in.tiles[in.unitTile[u]], int(in.unitRow[u]))
			}
		}
	})
	for u, row := range in.unitRow {
		rowNnz[row] += in.unitNnz[u]
	}
}

// stitchUnits places each heavy unit in the output once rowPtr is final:
// units of a row appear consecutively in ascending tile order, so a unit's
// slice starts at the row base plus the sizes of the row's earlier tiles —
// one serial scan, no temp buffers.
func (in *inspection[V]) stitchUnits() {
	for u, row := range in.unitRow {
		if in.unitTile[u] == 0 {
			in.unitOff[u] = in.rowPtr[row]
		} else {
			in.unitOff[u] = in.unitOff[u-1] + in.unitNnz[u-1]
		}
	}
}

// tiledHeavyNumeric fills the heavy units: each writes its tile's slice of
// the row straight into c at the stitched offset, through the whole-row
// numeric pass on the worker's tile-wide SPA, and biases its columns back to
// global ids. L2Overflows counts the units routed through tiling (the rows
// that would have overflowed the cache-resident accumulator on the hash
// path). No-op without heavy rows.
func tiledHeavyNumeric[V semiring.Value, R semiring.Ring[V]](ring R, ctx *ContextG[V], a, b *matrix.CSRG[V], in *inspection[V], c *matrix.CSRG[V], pt *phaseTimer) {
	if len(in.unitRow) == 0 {
		return
	}
	// A Plan keeps the units, never the split: cut B's current values into
	// this execution's Context — O(nnz(B)) in front of the units' O(flop), no
	// allocation at steady state, and nothing two executions share.
	tiles := in.tiles
	if tiles == nil {
		tiles = splitTiles(ctx, b, in.tileCols, (b.Cols+in.tileCols-1)/in.tileCols)
	}
	ctx.runWorkers(in.workers, func(w int) {
		ulo, uhi := in.uoffsets[w], in.uoffsets[w+1]
		if ulo >= uhi {
			return
		}
		h := hashNumeric[V, R]{ring: ring, spa: ctx.spaTable(w, in.tileCols), a: a, sorted: c.Sorted}
		var flop, rows int64
		for u := ulo; u < uhi; u++ {
			t := int(in.unitTile[u])
			if t == 0 {
				rows++
			}
			n := in.unitNnz[u]
			if n == 0 {
				continue
			}
			start := in.unitOff[u]
			h.b = &tiles[t]
			h.bind(c.ColIdx, c.Val)
			h.row(int(in.unitRow[u]), start, n, in.unitFlop[u])
			out, bias := c.ColIdx[start:start+n], int32(t*in.tileCols)
			for j := range out {
				out[j] += bias
			}
			flop += in.unitFlop[u]
		}
		ws := pt.worker(w)
		h.report(ws)
		if ws != nil {
			ws.Rows += rows
			ws.Flop += flop
			ws.L2Overflows += int64(uhi - ulo)
		}
	})
}
