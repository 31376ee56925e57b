package spgemm

import (
	"math"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Native plus-times row bodies.
//
// The generic kernels are shape-stenciled, not fully monomorphized: Go
// compiles one body per GC shape and passes the ring's method set through a
// runtime dictionary, so ring.Add/ring.Mul in the inner loops are indirect
// calls the inliner never sees. On plus-times that taxes the exact two
// instructions the paper's kernels are built around.
//
// ptBodies are the row bodies again, written in Go's own * and + over
// float64, the paper's one value type. bodiesFor (hashrow.go) hands them to
// PlusTimesF64 with one type switch per window, in un-annotated setup code,
// and every other ring — a foreign type with plus-times methods included —
// gets ringBodies, the dictionary bodies; TestRingFastSelection pins which.
// Fold order is the dictionary bodies', and float64(·) rounds each product
// before it is added, as a dictionary body's stored prod is: Go may
// otherwise fuse x*y + z into one multiply-add where the target has one
// (arm64), and the output would no longer be bit-identical
// (TestRingFastEquivalence; CI's arm64 fusion guard reads the assembly).
// Heap keeps the dictionary path.

// ptBodies are the rowBodies of PlusTimesF64; the ring argument is unused.
type ptBodies struct{}

// hashRow is ringBodies.hashRow (hashrow.go) in Go's * and +.
//
//spgemm:hotpath
func (ptBodies) hashRow(_ semiring.PlusTimesF64, table *accum.HashTable, a, b *matrix.CSR, i int, cols []int32, vals []float64, direct, sorted bool) {
	// Row sub-slices collapse the per-entry CSR bounds checks into one
	// slice check per row segment (lint/budget.txt [bce] budgets the rest).
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	if direct {
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			n := copy(cols, b.ColIdx[brp[0]:brp[1]])
			out := vals[:n]
			for y := range out {
				out[y] = av * bvals[y]
			}
			cols, vals = cols[n:], vals[n:]
		}
		return
	}
	table.Reset()
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := float64(av * bvals[y])
			slot, fresh := table.Upsert(col)
			if fresh {
				*slot = prod
			} else {
				*slot += prod
			}
		}
	}
	if sorted {
		table.ExtractSorted(cols, vals)
	} else {
		table.ExtractUnsorted(cols, vals)
	}
}

// spaRow is ringBodies.spaRow (hashrow.go) in Go's * and +, except for a
// sorted row with nothing seeded whose occupancy bitmap is no wider than the
// row — ⌈Cols/64⌉ words for the row's n entries, the ranker's dense window
// rule; such a row's cols is exactly its size (hashNumeric.row). That row
// folds with no stamp, branch or column list: each product sets its column's
// bit and adds onto its slot, which holds the identity -0 until then, so the
// first product lands as Upsert's store would leave it (B's word masks set
// its bits a run at a time). The bitmap extraction then lists the row in
// column order, with no sort.
//
//spgemm:hotpath
func (ptBodies) spaRow(_ semiring.PlusTimesF64, spa *accum.SPA, masks *wordMasks, a, b *matrix.CSR, i, from, seeded int, cols []int32, vals []float64, sorted bool) int {
	arp := a.RowPtr[i : i+2]
	acols := a.ColIdx[arp[0]+int64(from) : arp[1]]
	avals := a.Val[arp[0]+int64(from) : arp[1]]
	if sorted && seeded == 0 && (b.Cols+63)>>6 <= len(cols) {
		dense, occ := spa.Bitmap(b.Cols)
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			bcols := b.ColIdx[brp[0]:brp[1]]
			if masks != nil { // one OR per run of the B row, then the folds
				masks.or(occ, brp[0], k)
				for y, col := range bcols {
					dense[col] += float64(av * bvals[y])
				}
				continue
			}
			for y, col := range bcols {
				occ[col>>6] |= 1 << (col & 63)
				dense[col] += float64(av * bvals[y])
			}
		}
		return spa.ExtractBitmap(occ, cols, vals)
	}
	dense, stamp, gen := spa.Row(cols[:seeded], vals)
	stamp = stamp[:len(dense)] // one check per product covers both
	n := seeded
	for x, k := range acols {
		av := avals[x]
		brp := b.RowPtr[k : int(k)+2]
		bvals := b.Val[brp[0]:brp[1]]
		for y, col := range b.ColIdx[brp[0]:brp[1]] {
			prod := float64(av * bvals[y])
			if stamp[col] != gen {
				stamp[col], dense[col], cols[n] = gen, prod, col
				n++
			} else {
				dense[col] += prod
			}
		}
	}
	spa.Gather(cols[:n], vals, sorted)
	return n
}

// onePassRow is ringBodies.onePassRow (hashrow.go) in Go's *.
//
//spgemm:hotpath
func (p ptBodies) onePassRow(ring semiring.PlusTimesF64, spa *accum.SPA, a, b *matrix.CSR, i int, cols []int32, vals []float64) (n, marks int) {
	alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
	acols := a.ColIdx[alo:ahi]
	avals := a.Val[alo:ahi]
	st := spa.Marks()
	st.Clear()
	for x, k := range acols {
		brp := b.RowPtr[k : int(k)+2]
		bcols := b.ColIdx[brp[0]:brp[1]]
		if c := st.CopyNew(cols[n:], bcols); c < len(bcols) {
			return p.spaRow(ring, spa, nil, a, b, i, x, n, cols, vals, false), n + c + 1
		}
		av := avals[x]
		bvals := b.Val[brp[0]:brp[1]]
		out := vals[n : n+len(bvals)]
		for y, bv := range bvals {
			out[y] = av * bv
		}
		n += len(bvals)
	}
	return n, n
}

// negZero is the additive identity at the bit level: -0 + x == x for every
// x, where +0 + (-0) is +0. Folding an entry's first product onto it leaves
// what Upsert's store-if-fresh leaves.
var negZero = math.Copysign(0, -1)

// planReplayRowsF64 is a Plan's streamed numeric pass over rows [lo, hi)
// (plan.go): their p-th intermediate product, in A-row/B-row order, folds
// into entry dst[p] of its output row, which is every hash-family kernel's
// per-entry fold order. Plans are float64 plus-times only, so this is the
// one body of its kind.
//
//spgemm:hotpath
func planReplayRowsF64(a, b *matrix.CSR, rowPtr []int64, vals []float64, dst []uint32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := vals[rowPtr[i]:rowPtr[i+1]]
		for j := range out {
			out[j] = negZero
		}
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		acols := a.ColIdx[alo:ahi]
		avals := a.Val[alo:ahi]
		for x, k := range acols {
			av := avals[x]
			brp := b.RowPtr[k : int(k)+2]
			bvals := b.Val[brp[0]:brp[1]]
			d := dst[:len(bvals)]
			dst = dst[len(bvals):]
			for y, bv := range bvals {
				// float64() rounds the product as the kernels' stored prod
				// is rounded: no fused multiply-add where a target has one.
				out[d[y]] += float64(av * bv)
			}
		}
	}
}
