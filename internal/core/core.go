// Package core forwards the two calls the repo benchmark still makes through
// it to internal/spgemm, where the kernels and their whole API live.
package core

import (
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// Multiply computes C = A·B.
//
// Deprecated: use spgemm.Multiply.
func Multiply(a, b *matrix.CSR, opt *spgemm.Options) (*matrix.CSR, error) {
	return spgemm.Multiply(a, b, opt)
}

// NewContext returns an empty reusable execution context.
//
// Deprecated: use spgemm.NewContext.
func NewContext() *spgemm.Context { return spgemm.NewContext() }
