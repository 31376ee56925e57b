package spgemm

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Tiled plan build/execute: the AlgTiled arm of the inspector-executor
// split. The inspector caches everything structure-dependent — the tile
// geometry resolved at build time, the column-split of B (structure plus a
// permutation back to B's entry order), the heavy (row, tile) units with
// their flop weights, sizes and stitched output offsets, and both balanced
// partitions — so an execution is numeric work only: gather B's current
// split values through the permutation, then replay the light hash phase
// and the heavy dense-accumulator units straight into the output.

// buildTiled runs the tiled inspector into plan-owned buffers. Mirrors
// tiledMultiply's partition+symbolic phases; see tiled.go for the algorithm
// commentary.
func (p *Plan) buildTiled(opt *Options, ctx *Context) {
	a, b := p.a, p.b
	workers := p.workers
	g := &OptionsG[float64]{TileCols: opt.TileCols, TileHeavyFlop: opt.TileHeavyFlop}
	p.tileCols, p.heavyFlop = g.tileGeometry()
	p.nTiles = 1
	if b.Cols > p.tileCols {
		p.nTiles = (b.Cols + p.tileCols - 1) / p.tileCols
	}

	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	p.flopRow = append(p.flopRow[:0], flopRow...)

	p.nHeavy = 0
	if p.nTiles > 1 {
		for i := 0; i < a.Rows; i++ {
			if capBound(p.flopRow[i], b.Cols) > p.heavyFlop {
				p.nHeavy++
			}
		}
	}
	p.lightFlop = p.flopRow
	if p.nHeavy > 0 {
		p.lightFlop = make([]int64, a.Rows)
		for i, f := range p.flopRow {
			if capBound(f, b.Cols) > p.heavyFlop {
				p.lightFlop[i] = 0
			} else {
				p.lightFlop[i] = f
			}
		}
	}
	p.offsets = append(p.offsets[:0], ctx.partition(p.lightFlop, workers, workers)...)

	nUnits := 0
	if p.nHeavy > 0 {
		p.perm = make([]int64, b.RowPtr[b.Rows])
		tiles := splitTiles(ctx, b, p.tileCols, p.nTiles, p.perm)
		p.tileRowPtr = append(p.tileRowPtr[:0], tiles.rowPtr...)
		p.tileIdx = append(p.tileIdx[:0], tiles.colIdx...)
		tiles.rowPtr = p.tileRowPtr
		tiles.colIdx = p.tileIdx

		nUnits = p.nHeavy * p.nTiles
		p.unitRow = make([]int32, nUnits)
		p.unitTile = make([]int32, nUnits)
		p.unitFlop = make([]int64, nUnits)
		p.unitNnz = make([]int64, nUnits)
		p.unitOff = make([]int64, nUnits)
		u := 0
		for i := 0; i < a.Rows; i++ {
			if capBound(p.flopRow[i], b.Cols) <= p.heavyFlop {
				continue
			}
			base := u
			for t := 0; t < p.nTiles; t++ {
				p.unitRow[base+t] = int32(i)
				p.unitTile[base+t] = int32(t)
			}
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				k := int(a.ColIdx[q])
				for t := 0; t < p.nTiles; t++ {
					lo, hi := tiles.rowRange(t, k)
					p.unitFlop[base+t] += hi - lo
				}
			}
			u += p.nTiles
		}
		p.uoffsets = append(p.uoffsets[:0], ctx.partitionUnits(p.unitFlop, workers, workers)...)
	}
	pt.tick(PhasePartition)

	p.bounds = make([]int64, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	ctx.runWorkers("inspect-symbolic", workers, func(w int) {
		p.bounds[w] = ctx.hashSymbolic(w, a, b, p.lightFlop, p.offsets[w], p.offsets[w+1], rowNnz, pt.worker(w))
	})
	if nUnits > 0 {
		tiles := tiledSplit[float64]{rowPtr: p.tileRowPtr, colIdx: p.tileIdx, rows: b.Rows}
		ctx.runWorkers("inspect-symbolic-heavy", workers, func(w int) {
			ulo, uhi := p.uoffsets[w], p.uoffsets[w+1]
			if ulo >= uhi {
				return
			}
			spa := ctx.spaTable(w, p.tileCols)
			for u := ulo; u < uhi; u++ {
				if p.unitFlop[u] == 0 {
					continue
				}
				p.unitNnz[u] = tiledUnitSymbolic(spa, a, &tiles, int(p.unitRow[u]), int(p.unitTile[u]))
			}
		})
		for u := 0; u < nUnits; u++ {
			rowNnz[p.unitRow[u]] += p.unitNnz[u]
		}
	}
	pt.tick(PhaseSymbolic)
	p.rowPtr = ctx.prefixSum(rowNnz, make([]int64, a.Rows+1), workers)
	for u := 0; u < nUnits; u++ {
		if p.unitTile[u] == 0 {
			p.unitOff[u] = p.rowPtr[p.unitRow[u]]
		} else {
			p.unitOff[u] = p.unitOff[u-1] + p.unitNnz[u-1]
		}
	}
	pt.finish()
}

// executeTiled replays the numeric phase of a tiled plan against the current
// values of A and B. The plan is read-only here; all mutable state (hash
// tables, dense accumulators, the gathered tile values) comes from ctx, so
// concurrent calls with distinct Contexts are safe.
func (p *Plan) executeTiled(ctx *Context, stats *ExecStats) (*matrix.CSR, error) {
	a, b := p.a, p.b
	ring := semiring.PlusTimesF64{}
	if ctx == nil {
		ctx = NewContext()
	}
	ctx.ensureWorkers(p.workers)
	pt := startPhases(stats, p.workers)
	if stats != nil {
		stats.Algorithm = p.alg
	}

	// Re-gather B's current split values through the cached permutation —
	// the only per-execution tile work; O(nnz(B)) with no allocations at
	// steady state.
	var tiles tiledSplit[float64]
	nUnits := len(p.unitRow)
	if nUnits > 0 {
		vals := ctx.tileValBuf(len(p.perm))
		for q, src := range p.perm {
			vals[q] = b.Val[src]
		}
		tiles = tiledSplit[float64]{rowPtr: p.tileRowPtr, colIdx: p.tileIdx, vals: vals, rows: b.Rows}
	}
	pt.tick(PhasePartition)
	pt.tick(PhaseSymbolic)

	outPtr := make([]int64, len(p.rowPtr))
	copy(outPtr, p.rowPtr)
	c := outputShell[float64](a.Rows, b.Cols, outPtr, !p.unsorted)
	pt.tick(PhaseAlloc)

	ctx.runWorkers("plan-numeric", p.workers, func(w int) {
		lo, hi := p.offsets[w], p.offsets[w+1]
		h := newHashNumeric(ring, ctx.hashTable(w, p.bounds[w]), a, b, c.ColIdx, c.Val, !p.unsorted)
		h.rows(p.lightFlop, c.RowPtr, lo, hi, 0)
		if ws := pt.worker(w); ws != nil {
			ws.Rows += lightRows(p.lightFlop, p.flopRow, lo, hi)
			ws.Flop += rangeFlop(p.lightFlop, lo, hi)
			h.report(ws)
		}
	})
	if nUnits > 0 {
		ctx.runWorkers("plan-numeric-heavy", p.workers, func(w int) {
			ulo, uhi := p.uoffsets[w], p.uoffsets[w+1]
			if ulo >= uhi {
				return
			}
			spa := ctx.spaTable(w, p.tileCols)
			var flop, rows int64
			for u := ulo; u < uhi; u++ {
				t := int(p.unitTile[u])
				if t == 0 {
					rows++
				}
				if p.unitNnz[u] == 0 {
					continue
				}
				start := p.unitOff[u]
				cols := c.ColIdx[start : start+p.unitNnz[u]]
				vals := c.Val[start : start+p.unitNnz[u]]
				tiledUnitNumeric(ring, spa, a, &tiles, int(p.unitRow[u]), t, cols, vals, int32(t*p.tileCols), !p.unsorted)
				flop += p.unitFlop[u]
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
	mPlanExecs.Inc()
	if stats != nil {
		ctx.accumulate(stats)
	}
	return c, nil
}
