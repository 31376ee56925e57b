package main

import (
	"math"
	"sort"

	"repro/internal/matrix"
)

// The oracles here share no code with the kernels under test: a queue BFS, a
// marker-array triangle count and an entry-by-entry product comparison. The
// square products themselves come from matrix.NaiveMultiply, the repo's
// sequential map-accumulator reference.

// valueTol is the relative tolerance on product values. Kernels may fold a
// row's partial products in another order than the oracle does, so values
// agree to rounding, not to the bit; structure must agree exactly.
const valueTol = 1e-9

// sameProduct reports whether got equals want (whose rows are sorted):
// identical shape and per-row pattern, values within valueTol. The rows of
// got may be in any order, so each row of want is scattered into pos (one
// slot per column, all -1 between calls) and the entries of got are looked
// up there; a slot is cleared when matched, which also rejects a column
// that got stores twice. Checking allocates nothing per operation.
func sameProduct(got, want *matrix.CSR, pos []int64) bool {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		return false
	}
	ok := true
	for i := 0; i < want.Rows; i++ {
		lo, hi := want.RowPtr[i], want.RowPtr[i+1]
		if got.RowPtr[i] != lo || got.RowPtr[i+1] != hi {
			return false
		}
		for p := lo; p < hi; p++ {
			pos[want.ColIdx[p]] = p
		}
		for p := lo; p < hi; p++ {
			c := got.ColIdx[p]
			if c < 0 || int(c) >= len(pos) {
				ok = false
				continue
			}
			q := pos[c]
			if q < 0 {
				ok = false
				continue
			}
			pos[c] = -1
			w, g := want.Val[q], got.Val[p]
			if math.Abs(g-w) > valueTol*math.Max(1, math.Abs(w)) {
				ok = false
			}
		}
		if !ok { // leave pos all -1 for the next call
			for p := lo; p < hi; p++ {
				pos[want.ColIdx[p]] = -1
			}
			return false
		}
	}
	return true
}

// newPos returns the scatter array sameProduct needs for products with the
// given column count.
func newPos(cols int) []int64 {
	pos := make([]int64, cols)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// bfsLevels runs one plain queue BFS per source along the edges u→v of the
// stored entries (u, v). level[v][s] is the distance from sources[s] to v,
// -1 when unreachable; depth is the largest level reached.
func bfsLevels(g *matrix.CSR, sources []int32) (level [][]int32, depth int32) {
	n, k := g.Rows, len(sources)
	level = make([][]int32, n)
	flat := make([]int32, n*k)
	for i := range flat {
		flat[i] = -1
	}
	for v := range level {
		level[v] = flat[v*k : (v+1)*k]
	}
	queue := make([]int32, 0, n)
	for s, src := range sources {
		queue = append(queue[:0], src)
		level[src][s] = 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			d := level[u][s] + 1
			cols, _ := g.Row(int(u))
			for _, v := range cols {
				if level[v][s] < 0 {
					level[v][s] = d
					queue = append(queue, v)
					depth = max(depth, d)
				}
			}
		}
	}
	return level, depth
}

// countTriangles counts the triangles of the undirected simple graph under
// adj (direction, weights, duplicate edges and self-loops ignored) with the
// node-iterator method on the degree-oriented graph: every edge points from
// its lower-ranked end to its higher-ranked end, and for each node u the
// out-neighbours of u's out-neighbours are tested against a marker array of
// u's own out-neighbours.
func countTriangles(adj *matrix.CSR) int64 {
	n := adj.Rows
	nbr := make([][]int32, n)
	for u := 0; u < n; u++ {
		cols, _ := adj.Row(u)
		for _, v := range cols {
			if int(v) != u {
				nbr[u] = append(nbr[u], v)
				nbr[v] = append(nbr[v], int32(u))
			}
		}
	}
	for u := range nbr {
		l := nbr[u]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		w := 0
		for i, v := range l {
			if i == 0 || v != l[i-1] {
				l[w] = v
				w++
			}
		}
		nbr[u] = l[:w]
	}
	before := func(u, v int32) bool { // rank order: degree, then id
		du, dv := len(nbr[u]), len(nbr[v])
		return du < dv || (du == dv && u < v)
	}
	out := make([][]int32, n)
	for u := range nbr {
		for _, v := range nbr[u] {
			if before(int32(u), v) {
				out[u] = append(out[u], v)
			}
		}
	}
	mark := make([]bool, n)
	var count int64
	for u := range out {
		for _, v := range out[u] {
			mark[v] = true
		}
		for _, v := range out[u] {
			for _, w := range out[v] {
				if mark[w] {
					count++
				}
			}
		}
		for _, v := range out[u] {
			mark[v] = false
		}
	}
	return count
}
