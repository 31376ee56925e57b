package graph

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// ClusteringCoefficients computes the local clustering coefficient of every
// vertex — cc(v) = triangles(v) / C(deg(v), 2) — with one masked SpGEMM:
// B = (A·A) .* A counts, for each edge (v,w), the wedges v–k–w that close,
// so the row sums of B, all that is kept of it, are 2·triangles(v).
// Clustering coefficients are listed in the paper's Section 1 (reference [4])
// among the graph kernels whose bulk computation is SpGEMM.
func ClusteringCoefficients(adj *matrix.CSR, opt *spgemm.Options) ([]float64, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	// Clean 0/1 symmetric adjacency without self-loops.
	coo := matrix.FromCSR(adj)
	coo.Symmetrize()
	a := Pattern(coo.ToCSR())
	a = dropDiagonal(a)

	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	inner := *opt
	inner.Algorithm, inner.Mask = spgemm.AlgHash, a // the one kernel that fuses a mask
	closures, err := spgemm.MaskedRowSums(semiring.PlusTimesF64{}, a, a, &inner)
	if err != nil {
		return nil, err
	}
	cc := make([]float64, a.Rows)
	for v := 0; v < a.Rows; v++ {
		deg := float64(a.RowNNZ(v))
		if deg < 2 {
			continue // cc undefined/zero for degree < 2
		}
		// Row sum counts each triangle at v twice (once per incident edge
		// direction); the number of potential wedges is deg·(deg−1).
		cc[v] = closures[v] / (deg * (deg - 1))
	}
	return cc, nil
}

// GlobalClusteringCoefficient returns 3·triangles / wedges (transitivity).
func GlobalClusteringCoefficient(adj *matrix.CSR, opt *spgemm.Options) (float64, error) {
	res, err := CountTriangles(adj, opt)
	if err != nil {
		return 0, err
	}
	// Recompute the cleaned adjacency for the wedge count.
	coo := matrix.FromCSR(adj)
	coo.Symmetrize()
	a := dropDiagonal(Pattern(coo.ToCSR()))
	var wedges float64
	for v := 0; v < a.Rows; v++ {
		d := float64(a.RowNNZ(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0, nil
	}
	return 3 * float64(res.Triangles) / wedges, nil
}
