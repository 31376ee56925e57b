package graph

import (
	"fmt"

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
// repeated SpGEMM of the graph with a tall-skinny frontier matrix over the
// boolean or-and semiring — the paper's Section 5.5 use case ("the
// left-hand-side matrix represents the graph and the right-hand-side matrix
// represents the stack of frontiers, each column representing one BFS
// frontier").
//
// The sweep runs natively over CSRG[bool] with the monomorphized OrAndBool
// ring: frontier values are 1-byte booleans rather than 8-byte floats, which
// cuts the value-stream bandwidth of every product by 8×, and the or-and
// fold compiles to direct boolean ops. opt carries the algorithm/worker
// selection; its Mask and Context fields are ignored (a float64 Context
// cannot serve a bool product — MSBFS keeps its own).
func MSBFS(g *matrix.CSR, sources []int32, opt *spgemm.Options) (*BFSResult, error) {
	if g.Rows != g.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", g.Rows, g.Cols)
	}
	n := g.Rows
	k := len(sources)
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", s, n)
		}
	}
	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	inner := spgemm.OptionsG[bool]{
		Algorithm: opt.Algorithm,
		Workers:   opt.Workers,
		UseCase:   spgemm.UseTallSkinny,
		Stats:     opt.Stats,
		// One reusable context across the frontier sweeps.
		Context: spgemm.NewContextG[bool](),
	}

	// The frontier advances along edges u→v for each edge (u,v); with the
	// frontier stored as an n×k matrix F, the next frontier is Aᵀ·F. Build
	// the (boolean pattern of the) transpose once.
	at := matrix.MapValues(g.Transpose(), func(v float64) bool { return v != 0 })

	res := &BFSResult{Sources: append([]int32(nil), sources...)}
	res.Level = make([][]int32, n)
	for v := range res.Level {
		row := make([]int32, k)
		for j := range row {
			row[j] = -1
		}
		res.Level[v] = row
	}

	// Initial frontier: F[s][j] = true for source j.
	frontier := matrix.NewCOOG[bool](n, k)
	for j, s := range sources {
		frontier.Append(s, int32(j), true)
		res.Level[s][j] = 0
	}
	f := frontier.ToCSR()

	for depth := int32(1); f.NNZ() > 0; depth++ {
		next, err := spgemm.MultiplyRing(semiring.OrAndBool{}, at, f, &inner)
		if err != nil {
			return nil, err
		}
		bfsIters.Inc()
		bfsNNZ.Add(next.NNZ())
		// Mask out already-visited (vertex, source) pairs and record
		// levels for the fresh ones.
		nf := matrix.NewCOOG[bool](n, k)
		for v := 0; v < n; v++ {
			cols, _ := next.Row(v)
			for _, j := range cols {
				if res.Level[v][j] < 0 {
					res.Level[v][j] = depth
					nf.Append(int32(v), j, true)
				}
			}
		}
		f = nf.ToCSR()
		inner.Context.Recycle(next)
	}
	return res, nil
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
