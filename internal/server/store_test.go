package server

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// TestHashMatrixGolden pins the content hash of three fixed matrices. A
// matrix's hash is the name clients know it by, so a change to how the hash
// reads the encoding must leave every byte of it where it was.
func TestHashMatrixGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *matrix.CSR
		want string
	}{
		{"empty 0x0", matrix.NewCSR(0, 0), "e3382f90e03d53a7694061f01902042bb133cd9b50d457a48a180b1a0acc38be"},
		{"3x4 with an empty row", &matrix.CSR{
			Rows: 3, Cols: 4,
			RowPtr: []int64{0, 2, 2, 4},
			ColIdx: []int32{0, 3, 1, 2},
			Val:    []float64{1.5, -2, 3.25, 4},
			Sorted: true,
		}, "b424abe06a4d01b4129fb0b50faad030ea1b68369263361ebe2a23f36ab57540"},
		{"special values", &matrix.CSR{
			Rows: 2, Cols: 3,
			RowPtr: []int64{0, 2, 4},
			ColIdx: []int32{0, 2, 1, 0},
			Val:    []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001)},
			Sorted: false,
		}, "1f10ae3aaedd8b136617307eea6af6ea8b37687a3bf036a219f3ca5d81c16e26"},
	} {
		got, err := HashMatrix(c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}
