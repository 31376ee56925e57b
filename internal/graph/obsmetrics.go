package graph

import "repro/internal/obs"

// Graph-application observability: per-iteration counters labeled by app.
// One atomic add per iteration of an algorithm's outer loop — never per
// vertex or per edge — so enabled-but-unscraped metrics are free at the
// granularity these loops run at.
var (
	mIters = obs.NewCounterVec("graph_iterations_total",
		"outer-loop iterations executed, by application", "app")
	mIterNNZ = obs.NewCounterVec("graph_iteration_nnz_total",
		"nonzeros produced by per-iteration SpGEMM products, by application (msbfs: 64-source words)", "app")
)

// Cached children so the loops do a single atomic add per iteration.
var (
	mclIters  = mIters.With("mcl")
	mclNNZ    = mIterNNZ.With("mcl")
	bfsIters  = mIters.With("msbfs")
	bfsNNZ    = mIterNNZ.With("msbfs")
	betwIters = mIters.With("betweenness")
	betwNNZ   = mIterNNZ.With("betweenness")
)
