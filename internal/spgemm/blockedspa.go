package spgemm

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// blockedSPAMultiply implements the cache-blocked SPA SpGEMM of Patwary et
// al. (ISC 2015), described in the paper's Section 2: "a SPA-based algorithm
// can still achieve good performance by 'blocking' SPA in order to decrease
// cache miss rates. Patwary et al. achieved this by partitioning the data
// structure of B by columns."
//
// B is pre-split into column blocks; each worker sweeps its rows once per
// block with a SPA the size of one block (cache-resident), emitting each
// row's entries block by block — which also yields sorted output for free
// across blocks (and within a block after the per-block sort of the SPA's
// index list).
type blockedSPAConfig struct {
	// blockCols is the SPA width; 0 picks a cache-sized default.
	blockCols int
}

// defaultSPABlock holds the dense value+stamp arrays of one block in ~384 KiB
// (32768 × 12 bytes), comfortably inside an L2 slice.
const defaultSPABlock = 32768

func blockedSPAMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V], cfg blockedSPAConfig) (*matrix.CSRG[V], error) {
	blockCols := cfg.blockCols
	if blockCols <= 0 {
		blockCols = opt.TileCols
	}
	if blockCols <= 0 {
		// Analytic cache-derived width (tilegeom.go); falls back to the
		// legacy defaultSPABlock constant when no cache parameters are
		// installed.
		blockCols = tileColsFor[V]()
	}
	nBlocks := (b.Cols + blockCols - 1) / blockCols
	if nBlocks < 1 {
		nBlocks = 1
	}
	workers := opt.workersFor(a.Rows)
	pt := startPhases(opt.Stats, workers)
	// Split B by columns: blocks[k] holds B's entries with column in
	// [k·blockCols, (k+1)·blockCols), columns relabeled to block-local.
	blocks := splitColumns(b, blockCols, nBlocks)
	flopRow := perRowFlop(a, b)
	offsets := sched.BalancedPartition(flopRow, workers, workers)
	pt.tick(PhasePartition)

	// One-phase with per-worker growable buffers; rows stay contiguous per
	// worker because workers own contiguous row ranges.
	bufCols := make([][]int32, workers)
	bufVals := make([][]V, workers)
	rowNnz := make([]int64, a.Rows)
	rowOffset := make([]int64, a.Rows)

	sched.RunWorkersNamed("numeric", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		if lo >= hi {
			return
		}
		spa := accum.NewSPAG[V](blockCols)
		scratchCols := make([]int32, blockCols)
		scratchVals := make([]V, blockCols)
		for i := lo; i < hi; i++ {
			rowOffset[i] = int64(len(bufCols[w]))
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			var produced int64
			for blk := 0; blk < nBlocks; blk++ {
				bb := blocks[blk]
				spa.Reset()
				for p := alo; p < ahi; p++ {
					k := a.ColIdx[p]
					av := a.Val[p]
					blo, bhi := bb.RowPtr[k], bb.RowPtr[k+1]
					for q := blo; q < bhi; q++ {
						prod := ring.Mul(av, bb.Val[q])
						slot, fresh := spa.Upsert(bb.ColIdx[q])
						if fresh {
							*slot = prod
						} else {
							*slot = ring.Add(*slot, prod)
						}
					}
				}
				n := spa.Len()
				if n == 0 {
					continue
				}
				var cnt int
				if opt.Unsorted {
					cnt = spa.ExtractUnsorted(scratchCols[:n], scratchVals[:n])
				} else {
					cnt = spa.ExtractSorted(scratchCols[:n], scratchVals[:n])
				}
				base := int32(blk * blockCols)
				for t := 0; t < cnt; t++ {
					bufCols[w] = append(bufCols[w], scratchCols[t]+base)
					bufVals[w] = append(bufVals[w], scratchVals[t])
				}
				produced += int64(cnt)
			}
			rowNnz[i] = produced
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows = int64(hi - lo)
			ws.Flop = rangeFlop(flopRow, lo, hi)
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := sched.PrefixSum(rowNnz, nil, workers)
	// Blocks are emitted in increasing column order, so with sorted
	// per-block extraction the whole row is sorted.
	c := outputShell[V](a.Rows, b.Cols, rowPtr, !opt.Unsorted)
	pt.tick(PhaseAlloc)
	sched.RunWorkersNamed("assemble", workers, func(w int) {
		lo, hi := offsets[w], offsets[w+1]
		for i := lo; i < hi; i++ {
			off := rowOffset[i]
			n := rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[w][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[w][off:off+n])
		}
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}

// splitColumns partitions b into column blocks with block-local column ids.
func splitColumns[V semiring.Value](b *matrix.CSRG[V], blockCols, nBlocks int) []*matrix.CSRG[V] {
	blocks := make([]*matrix.CSRG[V], nBlocks)
	counts := make([][]int64, nBlocks)
	for k := range blocks {
		width := blockCols
		if (k+1)*blockCols > b.Cols {
			width = b.Cols - k*blockCols
		}
		blocks[k] = &matrix.CSRG[V]{
			Rows:   b.Rows,
			Cols:   width,
			RowPtr: make([]int64, b.Rows+1),
			Sorted: b.Sorted,
		}
		counts[k] = make([]int64, b.Rows)
	}
	for i := 0; i < b.Rows; i++ {
		lo, hi := b.RowPtr[i], b.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			counts[int(b.ColIdx[p])/blockCols][i]++
		}
	}
	for k := range blocks {
		var acc int64
		for i := 0; i < b.Rows; i++ {
			acc += counts[k][i]
			blocks[k].RowPtr[i+1] = acc
		}
		blocks[k].ColIdx = make([]int32, acc)
		blocks[k].Val = make([]V, acc)
		// Reuse counts[k] as per-row insertion cursors.
		for i := 0; i < b.Rows; i++ {
			counts[k][i] = blocks[k].RowPtr[i]
		}
	}
	for i := 0; i < b.Rows; i++ {
		lo, hi := b.RowPtr[i], b.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := int(b.ColIdx[p]) / blockCols
			q := counts[k][i]
			blocks[k].ColIdx[q] = b.ColIdx[p] - int32(k*blockCols)
			blocks[k].Val[q] = b.Val[p]
			counts[k][i] = q + 1
		}
	}
	return blocks
}
