package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/matrix"
	"repro/internal/mempool"
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
// resolves to it) every level is one pass over the pull matrix with no flop
// pre-pass, partition, symbolic pass or accumulator (spgemm's one-column
// route).
//
// The pull matrix starts as Aᵀ. A vertex whose visited words hold every
// source's bit has finished (Then et al.'s "seen by all BFSs"): no level can
// bring it a fresh bit. Once the rows that finished since the pull matrix
// was built hold half its entries (pullRebuild), it is rebuilt from Aᵀ's
// rows of the unfinished vertices that have in-edges, so the last levels
// read only those.
//
// opt carries the algorithm, workers and Stats: the last level's, copied
// out, whose product covers the pull matrix's rows, fewer than the graph's
// once a rebuild has run. Its Context is ignored: each call takes a scratch
// from a process-wide pool (a uint64 Context, which spent frontiers are
// recycled into, Aᵀ, the all-ones words, visited and the frontier arrays)
// and puts it back on return, so a warm call allocates only what it returns
// and a few small headers per level. The pooled scratch keeps no pointer to
// the caller's Stats or result.
func MSBFS(g *matrix.CSR, sources []int32, opt *spgemm.Options) (*BFSResult, error) {
	if g.Rows != g.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", g.Rows, g.Cols)
	}
	n, k := g.Rows, len(sources)
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", s, n)
		}
	}
	if opt == nil {
		opt = &spgemm.Options{Algorithm: spgemm.AlgHash}
	}
	s := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(s)
	s.opt = spgemm.OptionsG[uint64]{Algorithm: opt.Algorithm, Workers: opt.Workers,
		UseCase: spgemm.UseTallSkinny, Context: s.ctx}
	if opt.Stats != nil {
		s.opt.Stats = &s.stats
	}
	s.start(g, sources)

	// Level rows are capped windows of one flat array: appending to one
	// reallocates it rather than overwriting the next vertex's levels.
	res := &BFSResult{Sources: append([]int32(nil), sources...), Level: make([][]int32, n)}
	level := slices.Repeat([]int32{-1}, n*k)
	for v := range res.Level {
		res.Level[v] = level[v*k : (v+1)*k : (v+1)*k]
	}

	// c is the running level's product; depth 0's is the scratch's seed.
	c := &s.seed
	for depth := int32(0); s.filter(c, level, k, depth) > 0; depth++ {
		if s.retired > 0 && pullRebuild*s.retired >= s.pull.NNZ() {
			s.prune()
		}
		// The frontier advances along edges u→v, so the next frontier is Aᵀ·F.
		next, err := spgemm.MultiplyRing(semiring.OrAndU64{}, s.pull, &s.front, &s.opt)
		if err != nil {
			return nil, err
		}
		s.spend(c, next)
		c = next
		bfsIters.Inc()
		bfsNNZ.Add(c.NNZ())
	}
	if c != &s.seed { // a level was multiplied, the last into c
		s.keep(c)
		if opt.Stats != nil {
			w, st := opt.Stats.Workers, opt.Stats.Stripes
			*opt.Stats = s.stats
			opt.Stats.Workers = append(w[:0], s.stats.Workers...)
			opt.Stats.Stripes = append(st[:0], s.stats.Stripes...)
		}
	}
	return res, nil
}

// pullRebuild is the rebuild rule's share: the pull matrix is rebuilt once
// the rows that finished since it was built hold 1/pullRebuild of its
// entries.
const pullRebuild = 2

// bfsPool holds the scratch of MSBFS calls between calls; concurrent calls
// take distinct ones.
var bfsPool = sync.Pool{New: func() any { return &bfsScratch{ctx: spgemm.NewContextG[uint64]()} }}

// bfsScratch is what one MSBFS call works in besides its result. Every array
// grows through mempool.Grow and is reused by later calls; nothing is kept
// by graph identity, since Aᵀ is rebuilt on every call.
type bfsScratch struct {
	ctx   *spgemm.ContextG[uint64]
	opt   spgemm.OptionsG[uint64]
	stats spgemm.ExecStats // the running level's, when the caller asked

	// at is Aᵀ; cursor is its scatter's insertion point per row; ones is
	// the all-ones words every pull matrix takes its values from, read-only.
	at     matrix.CSRG[uint64]
	cursor []int64
	ones   []uint64

	// pull is the matrix each level multiplies: &at, or &kept once rebuilt.
	// Its row r is vertex live[r]; retired counts the entries of its rows
	// that finished since it was built.
	pull    *matrix.CSRG[uint64]
	kept    matrix.CSRG[uint64]
	live    []int32
	retired int64

	// visited holds words words per vertex. A vertex has finished when its
	// words are all ones but the last, which is full: every source's bit,
	// k mod 64 of them where k is not a multiple of 64.
	visited []uint64
	words   int
	full    uint64

	// seed is depth 0's product: every (vertex, word) with the sources that
	// start there. front is the frontier: its row pointers, over the graph's
	// vertices, are the scratch's, its entries the filtered product's.
	seed, front matrix.CSRG[uint64]

	// spare is the previous call's last product, which spend donates.
	spare *matrix.CSRG[uint64]
}

// start readies s for a call on g from sources: Aᵀ as the pull matrix, no
// vertex visited, and the seed.
func (s *bfsScratch) start(g *matrix.CSR, sources []int32) {
	n, k := g.Rows, len(sources)
	s.words = (k + 63) / 64
	s.full = ^uint64(0) >> ((64 - k%64) % 64)
	s.transpose(g)
	s.pull, s.retired = &s.at, 0
	live := mempool.Grow(&s.live, n)
	for v := range live {
		live[v] = int32(v)
	}
	clear(mempool.Grow(&s.visited, n*s.words))
	mempool.Grow(&s.front.RowPtr, n+1)

	words := s.words
	rp := mempool.Grow(&s.seed.RowPtr, n+1)
	for v := range rp {
		rp[v] = int64(v * words)
	}
	ci := mempool.Grow(&s.seed.ColIdx, n*words)
	for p := range ci {
		ci[p] = int32(p % words)
	}
	val := mempool.Grow(&s.seed.Val, n*words)
	clear(val)
	for j, src := range sources {
		val[int(src)*words+j/64] |= 1 << (j % 64)
	}
	s.seed = matrix.CSRG[uint64]{Rows: n, Cols: words, RowPtr: rp, ColIdx: ci, Val: val, Sorted: true}
}

// transpose builds g's pattern transposed in s.at, in the scratch's arrays:
// a count per column, its prefix sum, then a scatter through the cursor.
// Every entry is an all-ones word, a stored zero of g's included.
func (s *bfsScratch) transpose(g *matrix.CSR) {
	n, nnz := g.Rows, int(g.NNZ())
	rp := mempool.Grow(&s.at.RowPtr, n+1)
	clear(rp)
	for _, c := range g.ColIdx[:nnz] {
		rp[c+1]++
	}
	for i := range n {
		rp[i+1] += rp[i]
	}
	next := mempool.Grow(&s.cursor, n)
	copy(next, rp[:n])
	ci := mempool.Grow(&s.at.ColIdx, nnz)
	for i := range n {
		for _, c := range g.ColIdx[g.RowPtr[i]:g.RowPtr[i+1]] {
			ci[next[c]] = int32(i)
			next[c]++
		}
	}
	if cap(s.ones) < nnz {
		ones := mempool.Grow(&s.ones, nnz)
		for p := range ones {
			ones[p] = ^uint64(0)
		}
	}
	s.at = matrix.CSRG[uint64]{Rows: n, Cols: n, RowPtr: rp, ColIdx: ci, Val: s.ones[:nnz], Sorted: true}
}

// filter turns c, a level's product over the pull matrix's rows, into the
// next frontier: fresh = c &^ visited, each fresh bit's level set to depth,
// and the non-zero fresh words kept, in order, in c's own arrays under
// s.front's row pointers, one row per vertex. It returns the frontier's
// entries, and adds the pull entries of each row it finished to s.retired.
func (s *bfsScratch) filter(c *matrix.CSRG[uint64], level []int32, k int, depth int32) int64 {
	words, visited, rp := s.words, s.visited, s.front.RowPtr
	var out int64
	u := 0 // the first vertex whose frontier row has no pointer yet
	for r := range c.Rows {
		v := int(s.live[r])
		for ; u <= v; u++ {
			rp[u] = out
		}
		grew := false
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			w := int(c.ColIdx[p])
			if fresh := c.Val[p] &^ visited[v*words+w]; fresh != 0 {
				visited[v*words+w] |= fresh
				for b := fresh; b != 0; b &= b - 1 {
					level[v*k+w*64+bits.TrailingZeros64(b)] = depth
				}
				c.ColIdx[out], c.Val[out] = int32(w), fresh
				out++
				grew = true
			}
		}
		if grew && s.finished(v) {
			s.retired += s.pull.RowPtr[r+1] - s.pull.RowPtr[r]
		}
	}
	for ; u < len(rp); u++ {
		rp[u] = out
	}
	s.front = matrix.CSRG[uint64]{Rows: len(rp) - 1, Cols: words, RowPtr: rp,
		ColIdx: c.ColIdx[:out], Val: c.Val[:out], Sorted: true}
	return out
}

// finished reports whether v's visited words hold every source's bit.
func (s *bfsScratch) finished(v int) bool {
	row := s.visited[v*s.words : (v+1)*s.words]
	last := len(row) - 1
	for _, x := range row[:last] {
		if x != ^uint64(0) {
			return false
		}
	}
	return row[last] == s.full
}

// prune rebuilds the pull matrix in s.kept from Aᵀ's rows of the vertices
// that have in-edges and have not finished, with live mapping its rows to
// them.
func (s *bfsScratch) prune() {
	at := &s.at
	rp := mempool.Grow(&s.kept.RowPtr, at.Rows+1)
	ci := mempool.Grow(&s.kept.ColIdx, len(at.ColIdx))
	live := mempool.Grow(&s.live, at.Rows)
	rows, nnz := 0, int64(0)
	rp[0] = 0
	for v := range at.Rows {
		lo, hi := at.RowPtr[v], at.RowPtr[v+1]
		if lo == hi || s.finished(v) {
			continue
		}
		nnz += int64(copy(ci[nnz:], at.ColIdx[lo:hi]))
		live[rows] = int32(v)
		rows++
		rp[rows] = nnz
	}
	s.kept = matrix.CSRG[uint64]{Rows: rows, Cols: at.Cols, RowPtr: rp[:rows+1], ColIdx: ci[:nnz],
		Val: s.ones[:nnz], Sorted: true}
	s.pull, s.live, s.retired = &s.kept, live[:rows], 0
}

// spend hands c, a product no frontier reads any more, back to the
// Context, whose one donation next, the product just drawn, has taken,
// unless next has no entries: then c waits in spare. The seed is the
// scratch's own: in its place goes spare, the previous call's last product
// (or the one before it, where the last had no entries). A call's products
// alternate between two sets of arrays; spare carries the second from one
// call to the next.
func (s *bfsScratch) spend(c, next *matrix.CSRG[uint64]) {
	if next.NNZ() == 0 {
		if c != &s.seed {
			s.spare = c
		}
		return
	}
	if c == &s.seed {
		c, s.spare = s.spare, nil
	}
	s.ctx.Recycle(c)
}

// keep holds c, the last level's product, for the next call. With entries
// it becomes spare, spend having handed its predecessor to the Context.
// Without, its predecessor is spare already, and only c's row pointers, which
// it drew from the Context's donation, go back.
func (s *bfsScratch) keep(c *matrix.CSRG[uint64]) {
	if c.NNZ() > 0 {
		s.spare = c
	} else {
		s.ctx.Recycle(c)
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
