package graph

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// MCLOptions configures Markov clustering.
type MCLOptions struct {
	// Inflation is the inflation exponent r (default 2).
	Inflation float64
	// Prune drops entries below this value after inflation (default 1e-4).
	Prune float64
	// MaxIters bounds the expansion/inflation loop (default 100).
	MaxIters int
	// ChaosTol declares convergence when the chaos indicator (max over
	// rows of maxval − Σv²) falls below it (default 1e-3).
	ChaosTol float64
	// SpGEMM selects the algorithm used for the expansion step.
	SpGEMM *spgemm.Options
}

func (o *MCLOptions) defaults() MCLOptions {
	d := MCLOptions{Inflation: 2, Prune: 1e-4, MaxIters: 100, ChaosTol: 1e-3}
	if o == nil {
		return d
	}
	out := *o
	if out.Inflation <= 0 {
		out.Inflation = d.Inflation
	}
	if out.Prune <= 0 {
		out.Prune = d.Prune
	}
	if out.MaxIters <= 0 {
		out.MaxIters = d.MaxIters
	}
	if out.ChaosTol <= 0 {
		out.ChaosTol = d.ChaosTol
	}
	return out
}

// MCLResult reports the clustering.
type MCLResult struct {
	// Cluster[v] is the cluster id of vertex v (ids are dense, 0-based).
	Cluster []int
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Iterations is how many expansion/inflation rounds ran.
	Iterations int
	// Stats, when MCLOptions.SpGEMM.Stats was set, is the cumulative
	// execution profile of this run's expansion products: per-phase times
	// and worker counters summed with ExecStats.Add, not just the last
	// iteration's.
	Stats *spgemm.ExecStats
}

// MCL runs Markov clustering (van Dongen; HipMCL in the paper's reference
// [5]) on an undirected graph: iterate expansion (M ← M·M, the paper's
// canonical A² SpGEMM workload), inflation (elementwise power + renormalize)
// and pruning until the process converges, then read clusters off the final
// matrix as connected components.
func MCL(adj *matrix.CSR, o *MCLOptions) (*MCLResult, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	opt := o.defaults()

	// M starts as the row-normalized adjacency with self-loops (the
	// standard MCL initialization; row-stochastic is the transpose
	// convention and equivalent by symmetry of the update).
	coo := matrix.FromCSR(adj)
	for i := 0; i < adj.Rows; i++ {
		coo.Append(int32(i), int32(i), 1)
	}
	m := coo.ToCSR()
	normalizeRows(m)

	// Every expansion is an A²-shaped product: reuse one execution context
	// across iterations so per-worker accumulators and bookkeeping are paid
	// for once (the structure changes each round, so a Plan does not apply,
	// but the scratch does).
	inner := spgemm.Options{}
	if opt.SpGEMM != nil {
		inner = *opt.SpGEMM
	}
	if inner.Context == nil {
		inner.Context = spgemm.NewContext()
	}
	// Iterates are inflated in place and donated back: a single-use sink's
	// read-only mapping can serve neither.
	inner.ShardSink = nil

	var stats spgemm.ExecStats
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		// Expansion.
		next, err := spgemm.Multiply(m, m, &inner)
		if err != nil {
			return nil, err
		}
		stats.Add(inner.Stats)
		mclIters.Inc()
		mclNNZ.Add(next.NNZ())
		// The consumed iterate — MCL's own normalized copy on the first
		// round, never adj — becomes the storage of the next expansion.
		inner.Context.Recycle(m)
		// Inflation + pruning + normalization, then convergence check.
		inflate(next, opt.Inflation, opt.Prune)
		if chaos(next) < opt.ChaosTol {
			m = next
			iters++
			break
		}
		m = next
	}

	clusters, count := components(m)
	res := &MCLResult{Cluster: clusters, NumClusters: count, Iterations: iters}
	if inner.Stats != nil {
		res.Stats = &stats
	}
	return res, nil
}

// normalizeRows scales each row to sum 1 (rows that sum to zero are left).
func normalizeRows(m *matrix.CSR) {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var s float64
		for p := lo; p < hi; p++ {
			s += m.Val[p]
		}
		if s == 0 {
			continue
		}
		for p := lo; p < hi; p++ {
			m.Val[p] /= s
		}
	}
}

// inflate raises entries to the power r, prunes entries below the threshold
// (always keeping each row's maximum), and renormalizes rows. The matrix is
// compacted in place, row pointers included: a row's kept entries never
// start past its old start, so only the old row end needs keeping, and an
// iteration allocates nothing.
func inflate(m *matrix.CSR, r, prune float64) {
	out := int64(0)
	lo := m.RowPtr[0]
	for i := 0; i < m.Rows; i++ {
		hi, start := m.RowPtr[i+1], out
		var sum, max float64
		for p := lo; p < hi; p++ {
			v := math.Pow(m.Val[p], r)
			m.Val[p] = v
			sum += v
			if v > max {
				max = v
			}
		}
		if sum != 0 {
			threshold := prune * sum
			for p := lo; p < hi; p++ {
				v := m.Val[p]
				if v >= threshold || v == max {
					m.ColIdx[out] = m.ColIdx[p]
					m.Val[out] = v
					out++
				}
			}
			// Renormalize the kept entries.
			var kept float64
			for p := start; p < out; p++ {
				kept += m.Val[p]
			}
			for p := start; p < out; p++ {
				m.Val[p] /= kept
			}
		}
		m.RowPtr[i+1] = out
		lo = hi
	}
	m.ColIdx = m.ColIdx[:out]
	m.Val = m.Val[:out]
}

// chaos is MCL's convergence indicator: the largest, over rows, of
// (max value − sum of squared values). Zero for a fully converged
// (idempotent doubly-idempotent) matrix.
func chaos(m *matrix.CSR) float64 {
	var worst float64
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var max, ss float64
		for p := lo; p < hi; p++ {
			v := m.Val[p]
			ss += v * v
			if v > max {
				max = v
			}
		}
		if c := max - ss; c > worst {
			worst = c
		}
	}
	return worst
}

// components labels the connected components of the nonzero pattern of m
// (treated as undirected) with a union-find.
func components(m *matrix.CSR) ([]int, int) {
	parent := make([]int, m.Rows)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			union(i, int(c))
		}
	}
	labels := make(map[int]int)
	out := make([]int, m.Rows)
	for i := range out {
		root := find(i)
		id, ok := labels[root]
		if !ok {
			id = len(labels)
			labels[root] = id
		}
		out[i] = id
	}
	return out, len(labels)
}
