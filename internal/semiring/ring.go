// Package semiring defines the algebraic structures SpGEMM can run over.
//
// The paper's SpGEMM kernels compute over the ordinary (+, ×) arithmetic
// semiring, but the graph applications it motivates — multi-source BFS,
// triangle counting, Markov clustering — are SpGEMM over other semirings
// (boolean or-and, tropical min-plus). Ring[V] is the constraint-style
// interface the generic kernels are parameterized over, and the concrete
// rings below are zero-size types whose Add/Mul/Zero methods inline into the
// kernel inner loops.
package semiring

import "math"

var inf = math.Inf(1)

// Value is the set of element types the generic matrix / accumulator / kernel
// layer supports. The list is exact (no ~ terms) on purpose: helpers such as
// the duplicate-merging in matrix.Compact dispatch on the dynamic type of *V,
// and an exact type set keeps that dispatch total.
type Value interface {
	bool | int | int32 | int64 | uint32 | uint64 | float32 | float64
}

// Ring is a semiring over V presented as a (usually zero-size) value type.
// Kernels take R as a type parameter constrained by Ring[V], so Add and Mul
// are resolved at compile time and inline — no func-pointer call per
// multiply-add, which is the entire point of this layer.
//
// Zero is the additive identity: Add(x, Zero()) == x for all stored x.
// Kernels must not assume Zero() is the machine zero of V (MinPlusF64 has
// Zero() == +Inf); an output entry exists iff at least one product landed on
// it, never because its value compares equal to Zero().
type Ring[V any] interface {
	Add(a, b V) V
	Mul(a, b V) V
	Zero() V
}

// Every concrete ring below embeds a zero-size array of a uniquely named
// zero-size type. This gives each ring a DISTINCT underlying type, which
// keeps Go's GC-shape stenciling from collapsing them into one shared
// dictionary-based instantiation: each kernel×ring pair compiles separately
// and the ring methods devirtualize and inline.
type (
	tagPlusTimesF64 struct{}
	tagPlusTimesF32 struct{}
	tagPlusTimesI64 struct{}
	tagOrAndBool    struct{}
	tagMinPlusF64   struct{}
	tagMaxTimesF64  struct{}
)

// PlusTimesF64 is ordinary float64 arithmetic — the semiring of numerical
// linear algebra and the default instantiation of every kernel.
type PlusTimesF64 struct{ _ [0]tagPlusTimesF64 }

func (PlusTimesF64) Add(a, b float64) float64 { return a + b }
func (PlusTimesF64) Mul(a, b float64) float64 { return a * b }
func (PlusTimesF64) Zero() float64            { return 0 }
func (PlusTimesF64) String() string           { return "plus-times<f64>" }

// PlusTimesF32 is ordinary float32 arithmetic. Halves the value-stream
// bandwidth of the numeric phase relative to float64.
type PlusTimesF32 struct{ _ [0]tagPlusTimesF32 }

func (PlusTimesF32) Add(a, b float32) float32 { return a + b }
func (PlusTimesF32) Mul(a, b float32) float32 { return a * b }
func (PlusTimesF32) Zero() float32            { return 0 }
func (PlusTimesF32) String() string           { return "plus-times<f32>" }

// PlusTimesI64 is integer plus-times; exact counting (triangle counting,
// path counting) with no rounding concerns.
type PlusTimesI64 struct{ _ [0]tagPlusTimesI64 }

func (PlusTimesI64) Add(a, b int64) int64 { return a + b }
func (PlusTimesI64) Mul(a, b int64) int64 { return a * b }
func (PlusTimesI64) Zero() int64          { return 0 }
func (PlusTimesI64) String() string       { return "plus-times<i64>" }

// OrAndBool is the boolean semiring over real bools: one byte per stored
// value instead of the eight the legacy 0/1-in-float64 encoding pays.
// Reachability-style algorithms (multi-source BFS) run over this ring.
type OrAndBool struct{ _ [0]tagOrAndBool }

func (OrAndBool) Add(a, b bool) bool { return a || b }
func (OrAndBool) Mul(a, b bool) bool { return a && b }
func (OrAndBool) Zero() bool         { return false }
func (OrAndBool) String() string     { return "or-and<bool>" }

// MinPlusF64 is the tropical semiring (shortest paths): Add is min, Mul is +,
// and the additive identity is +Inf. The non-machine-zero identity makes it
// the canonical stress test for kernels that confuse "value is Zero" with
// "entry absent".
type MinPlusF64 struct{ _ [0]tagMinPlusF64 }

func (MinPlusF64) Add(a, b float64) float64 {
	// Branch rather than math.Min: no NaN/±0 special-casing, so it inlines.
	if a < b {
		return a
	}
	return b
}
func (MinPlusF64) Mul(a, b float64) float64 { return a + b }
func (MinPlusF64) Zero() float64            { return inf }
func (MinPlusF64) String() string           { return "min-plus<f64>" }

// MaxTimesF64 selects the strongest product path: Add is max, Mul is ×,
// identity 0 (for non-negative weights).
type MaxTimesF64 struct{ _ [0]tagMaxTimesF64 }

func (MaxTimesF64) Add(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func (MaxTimesF64) Mul(a, b float64) float64 { return a * b }
func (MaxTimesF64) Zero() float64            { return 0 }
func (MaxTimesF64) String() string           { return "max-times<f64>" }
