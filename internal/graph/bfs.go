package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// BFSResult holds multi-source BFS levels: Level[v][s] is the distance from
// source s to vertex v, or -1 if unreachable.
type BFSResult struct {
	Sources []int32
	Level   [][]int32 // Rows × len(Sources)
}

// MSBFS runs breadth-first search from all sources simultaneously by
// repeated SpGEMM of the graph with a tall-skinny frontier matrix, the
// paper's Section 5.5 use case. The frontiers are bit-packed (Then et al.,
// "The More the Merrier", PVLDB 8(4), 2014): source j is bit j%64 of column
// j/64 of an n × ⌈k/64⌉ CSRG[uint64], so one OrAndU64 product advances up to
// 64 sources. Aᵀ holds all-ones words on the graph's pattern (a stored zero
// is an edge). Each level filters the product in place (fresh = next &^
// visited), records the fresh bits' levels and keeps the non-zero fresh
// words, in order, as the next frontier. At up to 64 sources the frontier
// has one column, so under Hash (and AlgAuto, which the tall-skinny recipe
// resolves to it) every level is one pass over Aᵀ with no flop pre-pass,
// partition, symbolic pass or accumulator (spgemm's one-column route). opt
// carries the algorithm, workers and Stats (the last level's); its Context
// is ignored: MSBFS keeps its own uint64 Context, which spent frontiers are
// recycled into.
func MSBFS(g *matrix.CSR, sources []int32, opt *spgemm.Options) (*BFSResult, error) {
	if g.Rows != g.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", g.Rows, g.Cols)
	}
	n, k, words := g.Rows, len(sources), (len(sources)+63)/64
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", s, n)
		}
	}
	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	inner := spgemm.OptionsG[uint64]{Algorithm: opt.Algorithm, Workers: opt.Workers,
		UseCase: spgemm.UseTallSkinny, Stats: opt.Stats, Context: spgemm.NewContextG[uint64]()}
	// The frontier advances along edges u→v, so the next frontier is Aᵀ·F.
	at := matrix.TransposePattern(g, ^uint64(0))

	// Level rows are capped windows of one flat array: appending to one
	// reallocates it rather than overwriting the next vertex's levels.
	res := &BFSResult{Sources: append([]int32(nil), sources...), Level: make([][]int32, n)}
	level := slices.Repeat([]int32{-1}, n*k)
	for v := range res.Level {
		res.Level[v] = level[v*k : (v+1)*k : (v+1)*k]
	}
	visited := make([]uint64, n*words)

	// Depth 0's "product" stores every (vertex, word) with the sources that
	// start there; the filter turns it into the first frontier.
	next := &matrix.CSRG[uint64]{Rows: n, Cols: words, RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, n*words), Val: make([]uint64, n*words), Sorted: true}
	for p := range next.ColIdx {
		next.ColIdx[p] = int32(p % words)
		next.RowPtr[p/words+1] = int64(p + 1)
	}
	for j, s := range sources {
		next.Val[int(s)*words+j/64] |= 1 << (j % 64)
	}
	for depth := int32(0); ; depth++ {
		var out int64
		for v := 0; v < n; v++ {
			lo, hi := next.RowPtr[v], next.RowPtr[v+1]
			next.RowPtr[v] = out
			for p := lo; p < hi; p++ {
				w := int(next.ColIdx[p])
				if fresh := next.Val[p] &^ visited[v*words+w]; fresh != 0 {
					visited[v*words+w] |= fresh
					for b := fresh; b != 0; b &= b - 1 {
						level[v*k+w*64+bits.TrailingZeros64(b)] = depth
					}
					next.ColIdx[out], next.Val[out] = int32(w), fresh
					out++
				}
			}
		}
		next.RowPtr[n], next.ColIdx, next.Val = out, next.ColIdx[:out], next.Val[:out]
		if out == 0 {
			return res, nil
		}
		c, err := spgemm.MultiplyRing(semiring.OrAndU64{}, at, next, &inner)
		if err != nil {
			return nil, err
		}
		inner.Context.Recycle(next)
		next = c
		bfsIters.Inc()
		bfsNNZ.Add(c.NNZ())
	}
}

// Reached returns how many (vertex, source) pairs were reached.
func (r *BFSResult) Reached() int64 {
	var c int64
	for _, row := range r.Level {
		for _, l := range row {
			if l >= 0 {
				c++
			}
		}
	}
	return c
}
