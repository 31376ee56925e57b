package graph

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// Betweenness computes (unnormalized) betweenness centrality on an
// unweighted undirected graph with Brandes' algorithm expressed as batched
// SpGEMM — the formulation of the Combinatorial BLAS cited in the paper's
// Section 1 (reference [8]): breadth-first path counting multiplies the
// graph by a tall-skinny frontier matrix (one column per source), and the
// backward dependency accumulation multiplies by a tall-skinny matrix of
// scaled dependencies.
//
// sources selects the BFS roots; pass all vertices for exact centrality or a
// sample for the usual approximation. Each batch of up to batchSize sources
// runs as one sequence of SpGEMM calls.
func Betweenness(adj *matrix.CSR, sources []int32, batchSize int, opt *spgemm.Options) ([]float64, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	n := adj.Rows
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", s, n)
		}
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	// Clean undirected adjacency.
	coo := matrix.FromCSR(adj)
	coo.Symmetrize()
	a := dropDiagonal(Pattern(coo.ToCSR()))
	at := a // symmetric

	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	inner := *opt
	inner.ShardSink = nil // single-use, and its products cannot be donated
	inner.Unsorted = false
	if inner.Context == nil {
		// One reusable context across both sweeps of every batch.
		inner.Context = spgemm.NewContext()
	}

	bc := make([]float64, n)
	for start := 0; start < len(sources); start += batchSize {
		end := start + batchSize
		if end > len(sources) {
			end = len(sources)
		}
		if err := betweennessBatch(at, sources[start:end], &inner, bc); err != nil {
			return nil, err
		}
	}
	return bc, nil
}

// betweennessBatch accumulates the dependency of one batch of sources into
// bc.
func betweennessBatch(a *matrix.CSR, sources []int32, opt *spgemm.Options, bc []float64) error {
	n := a.Rows
	k := len(sources)

	// sigma[v*k+j]: number of shortest paths from sources[j] to v.
	// depth[v*k+j]: BFS level, -1 if unreached.
	sigma := make([]float64, n*k)
	depth := make([]int32, n*k)
	for i := range depth {
		depth[i] = -1
	}

	// Level-0 frontier: the sources themselves, with path count 1.
	fr := matrix.NewCOO(n, k)
	for j, s := range sources {
		sigma[int(s)*k+j] = 1
		depth[int(s)*k+j] = 0
		fr.Append(s, int32(j), 1)
	}
	frontiers := []*matrix.CSR{fr.ToCSR()}

	// Forward sweep: P = Aᵀ·F carries path counts to the next level.
	for d := int32(1); frontiers[len(frontiers)-1].NNZ() > 0; d++ {
		p, err := spgemm.Multiply(a, frontiers[len(frontiers)-1], opt)
		if err != nil {
			return err
		}
		betwIters.Inc()
		betwNNZ.Add(p.NNZ())
		next := matrix.NewCOO(n, k)
		for v := 0; v < n; v++ {
			cols, vals := p.Row(v)
			for t, j := range cols {
				idx := v*k + int(j)
				if depth[idx] == -1 {
					depth[idx] = d
					sigma[idx] = vals[t]
					next.Append(int32(v), j, vals[t])
				} else if depth[idx] == d {
					// Another predecessor at the same level (possible
					// when P is produced in pieces — kept for safety).
					sigma[idx] += vals[t]
				}
			}
		}
		frontiers = append(frontiers, next.ToCSR())
		opt.Context.Recycle(p)
	}

	// Backward sweep: delta[v] += sum over successors w of
	// sigma[v]/sigma[w] * (1 + delta[w]).
	delta := make([]float64, n*k)
	for d := len(frontiers) - 1; d >= 1; d-- {
		// T holds (1+delta)/sigma for vertices at depth d.
		tcoo := matrix.NewCOO(n, k)
		f := frontiers[d]
		for v := 0; v < n; v++ {
			cols, _ := f.Row(v)
			for _, j := range cols {
				idx := v*k + int(j)
				if sigma[idx] > 0 {
					tcoo.Append(int32(v), j, (1+delta[idx])/sigma[idx])
				}
			}
		}
		tm := tcoo.ToCSR()
		if tm.NNZ() == 0 {
			continue
		}
		u, err := spgemm.Multiply(a, tm, opt)
		if err != nil {
			return err
		}
		betwIters.Inc()
		betwNNZ.Add(u.NNZ())
		// delta(v) += sigma(v) * U(v) for v at depth d-1.
		prev := frontiers[d-1]
		for v := 0; v < n; v++ {
			ucols, uvals := u.Row(v)
			if len(ucols) == 0 {
				continue
			}
			// Mask U's row by the previous frontier's pattern.
			pcols, _ := prev.Row(v)
			pi := 0
			for t, j := range ucols {
				for pi < len(pcols) && pcols[pi] < j {
					pi++
				}
				if pi < len(pcols) && pcols[pi] == j {
					idx := v*k + int(j)
					delta[idx] += sigma[idx] * uvals[t]
				}
			}
		}
		opt.Context.Recycle(u)
	}

	// Accumulate: sources are excluded from their own counts.
	for v := 0; v < n; v++ {
		for j, s := range sources {
			if int32(v) != s {
				bc[v] += delta[v*k+j]
			}
		}
	}
	return nil
}
