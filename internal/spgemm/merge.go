package spgemm

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/semiring"
)

// mergeMultiply is an iterative row-merging SpGEMM in the style of
// ViennaCL / Gremse et al.: the contributing (sorted) rows of B are merged
// pairwise, round after round, like the merge phase of merge sort, combining
// duplicate columns as they meet. One-phase with growable per-worker output
// buffers; output is inherently sorted.
func mergeMultiply[V semiring.Value, R semiring.Ring[V]](ring R, a, b *matrix.CSRG[V], opt *OptionsG[V]) (*matrix.CSRG[V], error) {
	if !b.Sorted {
		return nil, fmt.Errorf("spgemm: merge algorithm requires sorted input rows (B is unsorted)")
	}
	workers := opt.workersFor(a.Rows)
	ctx := opt.ctx()
	ctx.ensureWorkers(workers)
	pt := startPhases(opt.Stats, workers)
	flopRow := ctx.perRowFlop(a, b)
	pt.tick(PhasePartition)

	bufCols := make([][]int32, workers)
	bufVals := make([][]V, workers)
	rowNnz := ctx.rowNnzBuf(a.Rows)
	rowWorker := make([]int32, a.Rows)
	rowOffset := make([]int64, a.Rows)

	ctx.parallelFor("numeric", workers, a.Rows, sched.Static, 1, func(w, lo, hi int) {
		// Ping-pong scratch for merge rounds, grown to the largest row —
		// the worker's reusable Scratch pair (A/B) from the call's Context.
		sw := ctx.workerScratch(w)
		var sc [2][]int32
		var sv [2][]V
		// Per-round segment boundaries within the scratch buffers.
		var segs [][2]int64
		var next [][2]int64

		for i := lo; i < hi; i++ {
			f := flopRow[i]
			if int64(len(sc[0])) < f {
				sc[0] = sw.EnsureInt32A(int(f))
				sc[1] = sw.EnsureInt32B(int(f))
				sv[0] = ctx.valScratchA(w, int(f))
				sv[1] = ctx.valScratchB(w, int(f))
			}
			// Round 0: copy each contributing row of B, scaled by a_ik,
			// into scratch 0.
			segs = segs[:0]
			var pos int64
			alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
			for p := alo; p < ahi; p++ {
				k := a.ColIdx[p]
				av := a.Val[p]
				blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
				if blo == bhi {
					continue
				}
				start := pos
				for q := blo; q < bhi; q++ {
					sc[0][pos] = b.ColIdx[q]
					sv[0][pos] = ring.Mul(av, b.Val[q])
					pos++
				}
				segs = append(segs, [2]int64{start, pos})
			}

			// Merge rounds: combine segment pairs until one remains.
			cur := 0
			for len(segs) > 1 {
				nxt := cur ^ 1
				next = next[:0]
				var out int64
				for s := 0; s+1 < len(segs); s += 2 {
					start := out
					out = mergeSegments(
						ring,
						sc[cur], sv[cur], segs[s], segs[s+1],
						sc[nxt], sv[nxt], out,
					)
					next = append(next, [2]int64{start, out})
				}
				if len(segs)%2 == 1 {
					// Odd segment carries over verbatim.
					last := segs[len(segs)-1]
					start := out
					copy(sc[nxt][out:], sc[cur][last[0]:last[1]])
					copy(sv[nxt][out:], sv[cur][last[0]:last[1]])
					out += last[1] - last[0]
					next = append(next, [2]int64{start, out})
				}
				segs, next = next, segs
				cur = nxt
			}

			var n int64
			if len(segs) == 1 {
				n = segs[0][1] - segs[0][0]
				rowOffset[i] = int64(len(bufCols[w]))
				bufCols[w] = append(bufCols[w], sc[cur][segs[0][0]:segs[0][1]]...)
				bufVals[w] = append(bufVals[w], sv[cur][segs[0][0]:segs[0][1]]...)
			} else {
				rowOffset[i] = int64(len(bufCols[w]))
			}
			rowNnz[i] = n
			rowWorker[i] = int32(w)
		}
		if ws := pt.worker(w); ws != nil {
			ws.Rows += int64(hi - lo)
			ws.Flop += rangeFlop(flopRow, lo, hi)
		}
	})
	pt.tick(PhaseNumeric)

	rowPtr := ctx.prefixSum(rowNnz, nil, workers)
	c := outputShell[V](a.Rows, b.Cols, rowPtr, true)
	pt.tick(PhaseAlloc)
	ctx.parallelFor("assemble", workers, a.Rows, sched.Static, 1, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := rowWorker[i]
			off := rowOffset[i]
			n := rowNnz[i]
			copy(c.ColIdx[rowPtr[i]:rowPtr[i]+n], bufCols[src][off:off+n])
			copy(c.Val[rowPtr[i]:rowPtr[i]+n], bufVals[src][off:off+n])
		}
	})
	pt.tick(PhaseAssemble)
	pt.finish()
	return c, nil
}

// mergeSegments merges two sorted segments of (srcC, srcV), combining equal
// columns with ring.Add, into (dstC, dstV) starting at out; returns the new
// output cursor.
//
//spgemm:hotpath
func mergeSegments[V semiring.Value, R semiring.Ring[V]](ring R, srcC []int32, srcV []V, s1, s2 [2]int64, dstC []int32, dstV []V, out int64) int64 {
	p, pe := s1[0], s1[1]
	q, qe := s2[0], s2[1]
	for p < pe && q < qe {
		cp, cq := srcC[p], srcC[q]
		switch {
		case cp < cq:
			dstC[out] = cp
			dstV[out] = srcV[p]
			p++
		case cq < cp:
			dstC[out] = cq
			dstV[out] = srcV[q]
			q++
		default:
			dstC[out] = cp
			dstV[out] = ring.Add(srcV[p], srcV[q])
			p++
			q++
		}
		out++
	}
	for ; p < pe; p++ {
		dstC[out] = srcC[p]
		dstV[out] = srcV[p]
		out++
	}
	for ; q < qe; q++ {
		dstC[out] = srcC[q]
		dstV[out] = srcV[q]
		out++
	}
	return out
}
