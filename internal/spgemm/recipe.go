package spgemm

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// UseCase classifies the multiplication scenario, following the paper's
// evaluation sections: squaring-like products (Section 5.4), square ×
// tall-skinny (Section 5.5), and triangular L×U (Section 5.6).
type UseCase int

const (
	UseSquare UseCase = iota
	UseTallSkinny
	UseTriangle
)

// String returns the use-case label.
func (u UseCase) String() string {
	switch u {
	case UseSquare:
		return "AxA"
	case UseTallSkinny:
		return "TallSkinny"
	case UseTriangle:
		return "LxU"
	}
	return "unknown"
}

// shardedAutoBytes is the estimated-output-size threshold (bytes) above
// which the recipe overrides Table 4 with AlgSharded: products this large
// are past the regime the paper's per-thread recipe was tuned on, and the
// stripe-wise engine bounds peak memory where the monolithic pipeline
// cannot. No caller sets it; it is atomic only so the tests that Swap it
// stay race-clean. A threshold <= 0 disables the routing.
var shardedAutoBytes atomic.Int64

func init() { shardedAutoBytes.Store(1 << 31) } // 2 GiB of output entries

// shardedRecommended estimates the output size in bytes — flop over the
// sampled compression ratio, times the per-entry cost — and fires when it
// reaches the threshold. All int64/float64 math: a scale-20+ flop total
// must not wrap (the same hardening as shardStripeCount).
func shardedRecommended[V semiring.Value](a, b *matrix.CSRG[V]) bool {
	limit := shardedAutoBytes.Load()
	if limit <= 0 {
		return false
	}
	var zero V
	per := float64(4 + unsafe.Sizeof(zero))
	// Two upper-bound pre-checks, cheapest first, before paying for the
	// sampled symbolic phase. flop <= nnz(A)·maxRowNNZ(B) costs O(Rows(B))
	// and settles ordinary products without the O(nnz(A)) flop walk, which
	// the kernel is about to repeat anyway; the exact flop settles the rest.
	// If even the no-compression bound stays under the threshold, the
	// estimate below cannot reach it either (cr >= 1).
	var maxRow int64
	for k := 0; k < b.Rows; k++ {
		if n := b.RowPtr[k+1] - b.RowPtr[k]; n > maxRow {
			maxRow = n
		}
	}
	if float64(a.NNZ())*float64(maxRow)*per < float64(limit) {
		return false
	}
	var totalFlop int64
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			totalFlop += b.RowPtr[k+1] - b.RowPtr[k]
		}
	}
	if float64(totalFlop)*per < float64(limit) {
		return false
	}
	cr := EstimateCompressionRatio(a, b, 1000)
	if cr < 1 {
		cr = 1
	}
	return float64(totalFlop)/cr*per >= float64(limit)
}

// recipeSampleRows bounds the recipe's compression-ratio estimate by work:
// the symbolic phase of at most this many stride-sampled rows, whatever the
// matrix size. The Heap cell below only asks which side of 2 the ratio falls.
const recipeSampleRows = 64

// heapMaxEF is the densest uniform square product (average nonzeros per row
// of A) the recipe still gives to Heap: the k-way merge pays log k per
// product where Hash pays a probe. At 3 Heap's median is still ahead but it
// no longer wins nine pairs of ten on every input; from 5 the probe wins.
const heapMaxEF = 2

// Recommend is the paper's Table 4 recipe cut down to the cells this
// repository has measured a winner in (EXPERIMENTS.md, "Heap vs Hash by
// recipe cell"): the best of this package's kernels for the given inputs,
// sortedness requirement and use case. The answer is one of Hash, Heap and
// Sharded — never a figure baseline, and never a kernel the inputs rule out:
// Heap consumes sorted row streams and is not proposed when B's rows are
// unsorted, so Multiply and NewPlan with AlgAuto succeed for every (sorted,
// unsorted) input combination. The recipe only inspects sparsity
// structure, so it applies unchanged to any value type.
//
// Where the paper's table and this repository's measurements disagree, the
// measurements stand:
//
//   - Heap keeps one cell — uniform, square, sorted in and out, at most
//     heapMaxEF nonzeros per row, compression ratio at most 2 — the only one
//     where it beat Hash. The paper's skewed ef <= 8 and L·U low-ratio cells
//     measured 1.6-3x and 1.05-4.4x slower and go to Hash.
//   - The two cells the paper gives to HashVector go to Hash: without vector
//     compare instructions the chunked probe loses to linear probing in
//     every cell measured, so AlgHashVec is reachable by name only.
//   - The uniform / unsorted / high-ratio cell the paper gives to
//     MKL-inspector goes to Hash, which beats the map-based stand-in on 96 %
//     of unsorted inputs (Figure 15).
//
// So only the Heap cell pays for the ratio sample, and it asks last.
func Recommend[V semiring.Value](a, b *matrix.CSRG[V], sorted bool, uc UseCase) Algorithm {
	if shardedRecommended(a, b) {
		return AlgSharded
	}
	// Table 4(b) TallSkinny row, Table 4(a) LxU and every skewed square cell
	// after measurement.
	if uc != UseSquare || IsSkewed(a) {
		return AlgHash
	}
	if sorted && b.Sorted && a.AvgRowNNZ() <= heapMaxEF && EstimateCompressionRatio(a, b, recipeSampleRows) <= 2 {
		return AlgHeap
	}
	return AlgHash
}

// EstimateCompressionRatio estimates flop/nnz(C) by running the symbolic
// phase on a sample of up to sampleRows rows (stride-sampled so both head
// and tail of the matrix contribute). An exact value requires the full
// symbolic phase; the estimate is what a recipe-driven caller can afford.
// Structure-only: the sampling counter never touches values.
func EstimateCompressionRatio[V semiring.Value](a, b *matrix.CSRG[V], sampleRows int) float64 {
	ctx := &ContextG[V]{}
	ctx.ensureWorkers(1)
	return ctx.compressionRatio(a, b, sampleRows)
}

// compressionRatio is EstimateCompressionRatio counting on c's worker-0
// counter, which a product on c goes on to use. ensureWorkers(1) must have
// been called.
func (c *ContextG[V]) compressionRatio(a, b *matrix.CSRG[V], sampleRows int) float64 {
	if a.Rows == 0 {
		return 1
	}
	if sampleRows <= 0 || sampleRows > a.Rows {
		sampleRows = a.Rows
	}
	stride := (a.Rows + sampleRows - 1) / sampleRows // ceil: at most sampleRows rows
	var flop, max, nnz int64
	for i := 0; i < a.Rows; i += stride {
		var f int64
		for _, k := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			f += b.RowPtr[k+1] - b.RowPtr[k]
		}
		flop += f
		if f > max {
			max = f
		}
	}
	rc := c.rowCounter(0, b.Cols, flop, capBound(max, b.Cols))
	for i := 0; i < a.Rows; i += stride {
		nnz += rc.count(a, b, i)
	}
	if nnz == 0 {
		return 1
	}
	return float64(flop) / float64(nnz)
}

// IsSkewed reports whether the row-degree distribution of m looks power-law
// rather than uniform: whether the variance of row nnz, beyond the share
// uniform placement produces by itself (Poisson: variance = mean), exceeds
// the squared mean — the coefficient of variation above 1, net of sampling
// noise. R-MAT G500 matrices exceed it eight- to twenty-fold; ER matrices sit
// at zero excess for every edge factor. Without the discount an ER matrix
// with one nonzero per row (CoV 1/sqrt(ef) = 1) lands on the threshold and
// reads as skewed or not by the seed.
func IsSkewed[V semiring.Value](m *matrix.CSRG[V]) bool {
	if m.Rows < 2 {
		return false
	}
	mean := m.AvgRowNNZ()
	if mean == 0 {
		return false
	}
	var ss float64
	for i := 0; i < m.Rows; i++ {
		d := float64(m.RowPtr[i+1]-m.RowPtr[i]) - mean
		ss += d * d
	}
	return ss/float64(m.Rows)-mean > mean*mean
}
