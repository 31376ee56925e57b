package spgemm_test

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// ExampleMultiply squares a small sparse matrix with the recipe-selected
// algorithm.
func ExampleMultiply() {
	// A 3×3 upper bidiagonal matrix.
	coo := matrix.NewCOO(3, 3)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 2)
	coo.Append(1, 1, 1)
	coo.Append(1, 2, 2)
	coo.Append(2, 2, 1)
	a := coo.ToCSR()

	c, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgAuto})
	if err != nil {
		panic(err)
	}
	for i := 0; i < c.Rows; i++ {
		cols, vals := c.Row(i)
		fmt.Printf("row %d:", i)
		for j := range cols {
			fmt.Printf(" (%d)%g", cols[j], vals[j])
		}
		fmt.Println()
	}
	// Output:
	// row 0: (0)1 (1)4 (2)4
	// row 1: (1)1 (2)4
	// row 2: (2)1
}

// ExampleMultiply_unsorted shows the paper's key optimization: skipping the
// per-row sort when downstream consumers accept unsorted rows.
func ExampleMultiply_unsorted() {
	a := matrix.Identity(2)
	c, err := spgemm.Multiply(a, a, &spgemm.Options{
		Algorithm: spgemm.AlgHash,
		Unsorted:  true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Sorted, c.NNZ())
	// Output: false 2
}

// ExampleRecommend shows the Table 4 recipe picking an algorithm from the
// input characteristics.
func ExampleRecommend() {
	a := matrix.Identity(100)
	alg := spgemm.Recommend(a, a, true, spgemm.UseSquare)
	fmt.Println(alg == spgemm.AlgAuto) // always a concrete algorithm
	// Output: false
}

// Example_flop counts the scalar multiplications of a product without
// computing it.
func Example_flop() {
	a := matrix.Identity(4)
	total, perRow := matrix.Flop(a, a)
	fmt.Println(total, len(perRow))
	// Output: 4 4
}
