package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// LabelPropagationResult reports a label-propagation community detection.
type LabelPropagationResult struct {
	// Label[v] is the community label of vertex v (dense 0-based ids).
	Label []int
	// NumCommunities is the number of distinct final labels.
	NumCommunities int
	// Iterations is the number of propagation rounds executed.
	Iterations int
}

// LabelPropagation runs the near-linear-time community detection of
// Raghavan, Albert and Kumara (the paper's Section 1, reference [27]),
// formulated as SpGEMM: with the current labels one-hot encoded in a sparse
// n×n matrix F, the product A·F gives, for every vertex, the weighted count
// of each label among its neighbours; every vertex then adopts an argmax
// label. Iterate until labels stabilize or maxIters rounds pass.
//
// rng breaks argmax ties randomly (the standard synchronous-update
// tie-breaking that avoids label oscillation).
func LabelPropagation(adj *matrix.CSR, maxIters int, rng *rand.Rand, opt *spgemm.Options) (*LabelPropagationResult, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	if maxIters <= 0 {
		maxIters = 50
	}
	coo := matrix.FromCSR(adj)
	coo.Symmetrize()
	a := dropDiagonal(Pattern(coo.ToCSR()))
	n := a.Rows
	// Add self-loops so each vertex counts its own label. Without this,
	// synchronous updates oscillate on bipartite-ish structures (two
	// connected vertices swap labels forever); with it, ties are broken
	// randomly and the process converges.
	withSelf := matrix.FromCSR(a)
	for v := 0; v < n; v++ {
		withSelf.Append(int32(v), int32(v), 1)
	}
	a = withSelf.ToCSR()

	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	inner := *opt
	inner.Mask = nil
	inner.ShardSink = nil // single-use, and its products cannot be donated
	inner.Unsorted = true // argmax scan does not need sorted rows
	if inner.Context == nil {
		// One reusable context across the propagation rounds.
		inner.Context = spgemm.NewContext()
	}

	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}

	iters := 0
	for ; iters < maxIters; iters++ {
		f := oneHot(labels)
		counts, err := spgemm.Multiply(a, f, &inner)
		if err != nil {
			return nil, err
		}
		lpIters.Inc()
		lpNNZ.Add(counts.NNZ())
		changed := 0
		for v := 0; v < n; v++ {
			cols, vals := counts.Row(v)
			if len(cols) == 0 {
				continue // isolated vertex keeps its label
			}
			best := argmaxRandomTie(cols, vals, rng)
			if best != labels[v] {
				labels[v] = best
				changed++
			}
		}
		inner.Context.Recycle(counts)
		if changed == 0 {
			break
		}
	}

	// Relabel densely.
	remap := map[int32]int{}
	out := make([]int, n)
	for v, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = len(remap)
			remap[l] = id
		}
		out[v] = id
	}
	return &LabelPropagationResult{Label: out, NumCommunities: len(remap), Iterations: iters}, nil
}

// oneHot encodes labels as a sparse n×n matrix with F[v][label(v)] = 1.
func oneHot(labels []int32) *matrix.CSR {
	n := len(labels)
	f := &matrix.CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, n),
		Val:    make([]float64, n),
		Sorted: true,
	}
	for v, l := range labels {
		f.RowPtr[v+1] = int64(v + 1)
		f.ColIdx[v] = l
		f.Val[v] = 1
	}
	return f
}

// argmaxRandomTie returns the column with the maximum value, choosing
// uniformly among ties.
func argmaxRandomTie(cols []int32, vals []float64, rng *rand.Rand) int32 {
	best := cols[0]
	bestV := vals[0]
	ties := 1
	for i := 1; i < len(cols); i++ {
		switch {
		case vals[i] > bestV:
			best = cols[i]
			bestV = vals[i]
			ties = 1
		case vals[i] == bestV:
			ties++
			if rng != nil && rng.Intn(ties) == 0 {
				best = cols[i]
			}
		}
	}
	return best
}
