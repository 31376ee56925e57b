// Package semiring defines the algebraic structures SpGEMM can run over.
//
// The paper's SpGEMM kernels compute over the ordinary (+, ×) arithmetic
// semiring, but the graph applications it motivates — multi-source BFS,
// triangle counting, Markov clustering — are SpGEMM over other semirings
// (boolean or-and, tropical min-plus). Ring[V] is the constraint-style
// interface the generic kernels are parameterized over, and the concrete
// rings below are empty structs. Go's GC-shape stenciling compiles one kernel
// instantiation per shape of V, so the three float64 rings share one and
// the other value types get one each. The generic kernels reach their Add/Mul
// through the instantiation's dictionary: a call per product, not inlined
// code (spgemm/ringfast.go hand-monomorphizes the float64 plus-times loops
// for that reason).
package semiring

import "math"

var inf = math.Inf(1)

// Value is the set of element types the generic matrix / accumulator / kernel
// layer supports: the types some ring, matrix, table or Context in the tree
// is instantiated over (int32 for the masked index's HashTableG[int32]). The
// list is exact (no ~ terms) on purpose: helpers such as the
// duplicate-merging in matrix.Compact dispatch on the dynamic type of *V,
// and an exact type set keeps that dispatch total.
type Value interface {
	bool | int32 | int64 | uint64 | float32 | float64
}

// Ring is a semiring over V presented as a value type, usually an empty struct.
// Kernels take R as a type parameter constrained by Ring[V], so the ring is
// a type chosen at compile time, never a func value a caller passes in.
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

// PlusTimesF64 is ordinary float64 arithmetic — the semiring of numerical
// linear algebra and the default instantiation of every kernel.
type PlusTimesF64 struct{}

func (PlusTimesF64) Add(a, b float64) float64 { return a + b }
func (PlusTimesF64) Mul(a, b float64) float64 { return a * b }
func (PlusTimesF64) Zero() float64            { return 0 }
func (PlusTimesF64) String() string           { return "plus-times<f64>" }

// PlusTimesF32 is ordinary float32 arithmetic. Halves the value-stream
// bandwidth of the numeric phase relative to float64.
type PlusTimesF32 struct{}

func (PlusTimesF32) Add(a, b float32) float32 { return a + b }
func (PlusTimesF32) Mul(a, b float32) float32 { return a * b }
func (PlusTimesF32) Zero() float32            { return 0 }
func (PlusTimesF32) String() string           { return "plus-times<f32>" }

// PlusTimesI64 is integer plus-times; exact counting (triangle counting,
// path counting) with no rounding concerns.
type PlusTimesI64 struct{}

func (PlusTimesI64) Add(a, b int64) int64 { return a + b }
func (PlusTimesI64) Mul(a, b int64) int64 { return a * b }
func (PlusTimesI64) Zero() int64          { return 0 }
func (PlusTimesI64) String() string       { return "plus-times<i64>" }

// OrAndBool is the boolean semiring over real bools: one byte per stored
// value instead of the eight the legacy 0/1-in-float64 encoding pays.
// Reachability-style algorithms (multi-source BFS) run over this ring.
type OrAndBool struct{}

func (OrAndBool) Add(a, b bool) bool { return a || b }
func (OrAndBool) Mul(a, b bool) bool { return a && b }
func (OrAndBool) Zero() bool         { return false }
func (OrAndBool) String() string     { return "or-and<bool>" }

// OrAndU64 is the boolean semiring on each of the 64 bits of a word at
// once: Add is |, Mul is &, Zero is 0. Multi-source BFS packs 64 sources
// into one word per vertex, so one product advances all of them. A product
// of disjoint words is 0 == Zero(), and the entry it lands on still exists.
type OrAndU64 struct{}

func (OrAndU64) Add(a, b uint64) uint64 { return a | b }
func (OrAndU64) Mul(a, b uint64) uint64 { return a & b }
func (OrAndU64) Zero() uint64           { return 0 }
func (OrAndU64) String() string         { return "or-and<u64>" }

// MinPlusF64 is the tropical semiring (shortest paths): Add is min, Mul is +,
// and the additive identity is +Inf. The non-machine-zero identity makes it
// the canonical stress test for kernels that confuse "value is Zero" with
// "entry absent".
type MinPlusF64 struct{}

func (MinPlusF64) Add(a, b float64) float64 {
	// Branch rather than math.Min, so it inlines. A NaN on either side wins,
	// which keeps Add commutative under NaN (a kernel folding in its own order
	// agrees with the oracle); ±0 compare equal and are not told apart.
	if a < b || a != a {
		return a
	}
	return b
}
func (MinPlusF64) Mul(a, b float64) float64 { return a + b }
func (MinPlusF64) Zero() float64            { return inf }
func (MinPlusF64) String() string           { return "min-plus<f64>" }

// MaxTimesF64 selects the strongest product path: Add is max, Mul is ×,
// identity 0 (for non-negative weights).
type MaxTimesF64 struct{}

func (MaxTimesF64) Add(a, b float64) float64 {
	if a > b || a != a { // NaN wins on either side, as in MinPlusF64.Add
		return a
	}
	return b
}
func (MaxTimesF64) Mul(a, b float64) float64 { return a * b }
func (MaxTimesF64) Zero() float64            { return 0 }
func (MaxTimesF64) String() string           { return "max-times<f64>" }
