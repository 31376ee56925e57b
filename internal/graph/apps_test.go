package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

func TestClusteringCoefficientsK4(t *testing.T) {
	// Complete graph: every vertex has cc = 1.
	a := adjacency(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	cc, err := ClusteringCoefficients(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cc {
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("K4 cc[%d] = %v, want 1", v, c)
		}
	}
}

func TestClusteringCoefficientsPath(t *testing.T) {
	// A path has no triangles: all coefficients zero.
	a := adjacency(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	cc, err := ClusteringCoefficients(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range cc {
		if c != 0 {
			t.Fatalf("path cc[%d] = %v, want 0", v, c)
		}
	}
}

func TestClusteringCoefficientsMixed(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 2.
	a := adjacency(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	cc, err := ClusteringCoefficients(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 0,1: degree 2, one triangle → cc = 1.
	if math.Abs(cc[0]-1) > 1e-12 || math.Abs(cc[1]-1) > 1e-12 {
		t.Fatalf("cc = %v", cc)
	}
	// Vertex 2: degree 3, one triangle → cc = 1/3.
	if math.Abs(cc[2]-1.0/3) > 1e-12 {
		t.Fatalf("cc[2] = %v, want 1/3", cc[2])
	}
	// Vertex 3: degree 1 → 0.
	if cc[3] != 0 {
		t.Fatalf("cc[3] = %v", cc[3])
	}
}

func TestClusteringCoefficientsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	m := matrix.Random(40, 40, 0.15, rng)
	cc, err := ClusteringCoefficients(m, &spgemm.Options{Algorithm: spgemm.AlgHeap})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force on the cleaned adjacency.
	coo := matrix.FromCSR(m)
	coo.Symmetrize()
	a := dropDiagonal(Pattern(coo.ToCSR()))
	d := a.ToDense()
	for v := 0; v < a.Rows; v++ {
		deg := int(a.RowNNZ(v))
		if deg < 2 {
			if cc[v] != 0 {
				t.Fatalf("cc[%d] = %v for degree %d", v, cc[v], deg)
			}
			continue
		}
		var tri int
		cols, _ := a.Row(v)
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				if d.At(int(cols[i]), int(cols[j])) != 0 {
					tri++
				}
			}
		}
		want := 2 * float64(tri) / (float64(deg) * float64(deg-1))
		if math.Abs(cc[v]-want) > 1e-9 {
			t.Fatalf("cc[%d] = %v, want %v", v, cc[v], want)
		}
	}
}

// TestClusteringCoefficientsMatchMaterializedSums: the row sums are the
// materialized masked product's, summed from +0 in column order, so every
// coefficient has the bits it had when the product was stored.
func TestClusteringCoefficientsMatchMaterializedSums(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	for _, g := range []struct {
		name string
		adj  *matrix.CSR
	}{
		{"rmat9", gen.RMAT(9, 8, gen.G500Params, rng)},
		{"rmat8", gen.RMAT(8, 16, gen.G500Params, rng)},
		{"er9", gen.ER(9, 6, rng)},
	} {
		coo := matrix.FromCSR(g.adj)
		coo.Symmetrize()
		a := dropDiagonal(Pattern(coo.ToCSR()))
		for _, workers := range []int{1, 2} {
			b, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash, Mask: a, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			cc, err := ClusteringCoefficients(g.adj, &spgemm.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < a.Rows; v++ {
				var want float64
				if deg := float64(a.RowNNZ(v)); deg >= 2 {
					_, vals := b.Row(v)
					var closures float64
					for _, w := range vals {
						closures += w
					}
					want = closures / (deg * (deg - 1))
				}
				if math.Float64bits(cc[v]) != math.Float64bits(want) {
					t.Fatalf("%s W=%d: cc[%d] = %v, want %v", g.name, workers, v, cc[v], want)
				}
			}
		}
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	// K3: transitivity 1. Path: 0.
	k3 := adjacency(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	g, err := GlobalClusteringCoefficient(k3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-1) > 1e-12 {
		t.Fatalf("K3 transitivity = %v", g)
	}
	path := adjacency(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	g, err = GlobalClusteringCoefficient(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0 {
		t.Fatalf("path transitivity = %v", g)
	}
}

func TestClusteringCoefficientsRejectsNonSquare(t *testing.T) {
	if _, err := ClusteringCoefficients(matrix.NewCSR(2, 3), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{i, j}, [2]int32{i + 5, j + 5})
		}
	}
	edges = append(edges, [2]int32{4, 5}) // weak bridge
	a := adjacency(10, edges)
	rng := rand.New(rand.NewSource(313))
	res, err := LabelPropagation(a, 50, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each clique must be internally uniform.
	for i := 1; i < 5; i++ {
		if res.Label[i] != res.Label[0] {
			t.Fatalf("clique 1 split: %v", res.Label)
		}
		if res.Label[i+5] != res.Label[5] {
			t.Fatalf("clique 2 split: %v", res.Label)
		}
	}
	if res.NumCommunities < 1 || res.NumCommunities > 2 {
		t.Fatalf("communities = %d", res.NumCommunities)
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations ran")
	}
}

func TestLabelPropagationIsolatedVertices(t *testing.T) {
	a := adjacency(4, [][2]int32{{0, 1}}) // 2 and 3 isolated
	rng := rand.New(rand.NewSource(314))
	res, err := LabelPropagation(a, 10, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label[2] == res.Label[3] {
		t.Fatal("isolated vertices should keep distinct labels")
	}
	if res.Label[0] != res.Label[1] {
		t.Fatal("connected pair should share a label")
	}
}

func TestLabelPropagationRejectsNonSquare(t *testing.T) {
	if _, err := LabelPropagation(matrix.NewCSR(2, 3), 5, nil, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestOneHotEncoding(t *testing.T) {
	f := oneHot([]int32{2, 0, 1})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	d := f.ToDense()
	if d.At(0, 2) != 1 || d.At(1, 0) != 1 || d.At(2, 1) != 1 || f.NNZ() != 3 {
		t.Fatal("one-hot wrong")
	}
}

func TestArgmaxRandomTie(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	// Clear max.
	if got := argmaxRandomTie([]int32{3, 7, 9}, []float64{1, 5, 2}, rng); got != 7 {
		t.Fatalf("argmax = %d", got)
	}
	// Ties: both candidates must be reachable.
	seen := map[int32]bool{}
	for i := 0; i < 200; i++ {
		seen[argmaxRandomTie([]int32{1, 2}, []float64{5, 5}, rng)] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("tie-breaking not random: %v", seen)
	}
}
