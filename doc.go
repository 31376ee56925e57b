// Package repro is a from-scratch Go reproduction of Nagasaka, Matsuoka,
// Azad and Buluç, "High-Performance Sparse Matrix-Matrix Products on Intel
// KNL and Multicore Architectures" (ICPP 2018; arXiv:1804.01698).
//
// The library lives under internal/:
//
//   - internal/matrix    — CSR/COO storage, Matrix Market I/O, statistics
//   - internal/semiring  — (+,×), or-and, min-plus, max-times semirings
//   - internal/sched     — static/dynamic/guided/balanced loop scheduling
//   - internal/mempool   — thread-private memory management (single vs parallel)
//   - internal/accum     — the kernels' hash, heap and SPA accumulators
//   - internal/spgemm    — the SpGEMM algorithms and the Table 4 recipe
//   - internal/gen       — R-MAT ER/G500 generators and Table 2 proxies
//   - internal/graph     — triangle counting, multi-source BFS, Markov clustering
//   - internal/memmodel  — stanza bandwidth microbenchmark and MCDRAM model
//   - internal/bench     — the experiment harness for every table and figure
//
// Binaries: cmd/spgemm-bench (regenerate the paper's tables and figures),
// cmd/spgemm (multiply Matrix Market files), cmd/rmatgen (generate
// workloads). Runnable examples are under examples/.
//
// The benchmarks in bench_test.go map one-to-one onto the paper's figures;
// see DESIGN.md for the per-experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
