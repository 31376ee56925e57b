package matrix

import (
	"math"

	"repro/internal/semiring"
)

// Stats summarizes the structural quantities the paper's evaluation keys on
// (Table 2 and the compression-ratio plots of Figures 14 and 17).
type Stats struct {
	Rows, Cols int
	NNZ        int64 // nonzeros of the input matrix
	Flop       int64 // scalar multiplications to form the product
	NNZOut     int64 // nonzeros of the product
	// CompressionRatio is Flop / NNZOut — the paper's "compression ratio"
	// (how many intermediate products merge into each output nonzero).
	CompressionRatio float64
}

// Flop returns the number of non-trivial scalar multiplications required to
// compute A·B by a row-wise algorithm (the paper's "flop"), together with the
// per-row counts that drive the balanced scheduler of Figure 6. It depends
// only on structure, so it is generic over the value types.
func Flop[V, W semiring.Value](a *CSRG[V], b *CSRG[W]) (total int64, perRow []int64) {
	return FlopInto(a, b, nil)
}

// FlopInto is Flop with a caller-provided per-row buffer: when cap(buf) is at
// least a.Rows the counts are written in place and no allocation happens,
// otherwise a new slice is allocated. Iterative callers (spgemm.Context) pass
// the same buffer every multiplication so the flop pre-pass stops allocating
// at steady state.
func FlopInto[V, W semiring.Value](a *CSRG[V], b *CSRG[W], buf []int64) (total int64, perRow []int64) {
	if a.Cols != b.Rows {
		panic("matrix: Flop dimension mismatch")
	}
	if cap(buf) < a.Rows {
		buf = make([]int64, a.Rows)
	}
	perRow = buf[:a.Rows]
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var f int64
		for p := lo; p < hi; p++ {
			k := a.ColIdx[p]
			f += b.RowPtr[k+1] - b.RowPtr[k]
		}
		perRow[i] = f
		total += f
	}
	return total, perRow
}

// StructureChecksum returns an FNV-1a-style hash over the matrix's
// dimensions, row pointers and column indices — the sparsity structure,
// deliberately blind to the values. spgemm.Plan uses it to validate that a
// cached symbolic phase still applies: numeric re-execution is sound whenever
// the structure is unchanged, however much the values moved. Cost is
// O(rows + nnz), far below the O(flop) symbolic pass it guards, but paid by
// every Plan execution, so the hash folds a whole word per multiply where FNV
// folds a byte: each step is a bijection of the state (structures that differ
// in one word never collide), and at two or three products per row a
// byte-wise walk cost more than a Heap replay saves over one-shot Heap.
func (m *CSRG[V]) StructureChecksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(m.Rows))
	mix(uint64(m.Cols))
	for _, p := range m.RowPtr {
		mix(uint64(p))
	}
	for _, c := range m.ColIdx {
		mix(uint64(uint32(c)))
	}
	return h
}

// MaxRowNNZ returns the maximum number of stored entries in any row.
func (m *CSRG[V]) MaxRowNNZ() int64 {
	var mx int64
	for i := 0; i < m.Rows; i++ {
		if r := m.RowPtr[i+1] - m.RowPtr[i]; r > mx {
			mx = r
		}
	}
	return mx
}

// AvgRowNNZ returns the mean number of entries per row (the "edge factor" of
// the paper's synthetic matrices).
func (m *CSRG[V]) AvgRowNNZ() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// ProductStats computes the Table 2 style statistics of the product a·b
// without materializing the product values: nnz of the inputs, flop, nnz of
// the output (via a symbolic pass with a dense generation-stamped accumulator)
// and the compression ratio.
func ProductStats[V, W semiring.Value](a *CSRG[V], b *CSRG[W]) Stats {
	flop, _ := Flop(a, b)
	nnzOut := SymbolicNNZ(a, b)
	cr := math.Inf(1)
	if nnzOut > 0 {
		cr = float64(flop) / float64(nnzOut)
	}
	return Stats{
		Rows: a.Rows, Cols: b.Cols,
		NNZ:              a.NNZ(),
		Flop:             flop,
		NNZOut:           nnzOut,
		CompressionRatio: cr,
	}
}

// SymbolicNNZ returns nnz(a·b) using a sequential symbolic pass. It is the
// simple reference used for statistics; the parallel symbolic phases live in
// the spgemm package.
func SymbolicNNZ[V, W semiring.Value](a *CSRG[V], b *CSRG[W]) int64 {
	if a.Cols != b.Rows {
		panic("matrix: SymbolicNNZ dimension mismatch")
	}
	mark := make([]int32, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var total int64
	for i := 0; i < a.Rows; i++ {
		stamp := int32(i)
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			k := a.ColIdx[p]
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for q := blo; q < bhi; q++ {
				c := b.ColIdx[q]
				if mark[c] != stamp {
					mark[c] = stamp
					total++
				}
			}
		}
	}
	return total
}
