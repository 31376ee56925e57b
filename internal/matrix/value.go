package matrix

// Helpers for arithmetic over the generic value parameter V. The storage
// types are generic over semiring.Value — an exact (tilde-free) type set — so
// the pointer-based type switches below are total. They box *V, not V, which
// keeps them allocation-free; they back structural utilities (Compact, ToCSR,
// Sum, ToDense), never kernel inner loops, which take a semiring.Ring and
// monomorphize instead.

import "repro/internal/semiring"

// addValue returns a+b under the conventional addition of V's type family:
// numeric + for the number types, logical OR for bool. Structural merges
// (duplicate entries in Compact / COO.ToCSR) use it, matching the historic
// float64 behavior.
func addValue[V semiring.Value](a, b V) V {
	switch p := any(&a).(type) {
	case *float64:
		*p += *any(&b).(*float64)
	case *float32:
		*p += *any(&b).(*float32)
	case *int64:
		*p += *any(&b).(*int64)
	case *int32:
		*p += *any(&b).(*int32)
	case *uint64:
		*p += *any(&b).(*uint64)
	case *bool:
		*p = *p || *any(&b).(*bool)
	}
	return a
}

// mulValue returns a·b: numeric × for the number types, logical AND for bool.
func mulValue[V semiring.Value](a, b V) V {
	switch p := any(&a).(type) {
	case *float64:
		*p *= *any(&b).(*float64)
	case *float32:
		*p *= *any(&b).(*float32)
	case *int64:
		*p *= *any(&b).(*int64)
	case *int32:
		*p *= *any(&b).(*int32)
	case *uint64:
		*p *= *any(&b).(*uint64)
	case *bool:
		*p = *p && *any(&b).(*bool)
	}
	return a
}

// oneValue returns the multiplicative identity of V (true for bool).
func oneValue[V semiring.Value]() V {
	var one V
	switch p := any(&one).(type) {
	case *float64:
		*p = 1
	case *float32:
		*p = 1
	case *int64:
		*p = 1
	case *int32:
		*p = 1
	case *uint64:
		*p = 1
	case *bool:
		*p = true
	}
	return one
}

// toFloat64 converts v to float64 (bool maps to 0/1), for utilities that
// bridge into float64-typed reporting (ToDense).
func toFloat64[V semiring.Value](v V) float64 {
	switch p := any(&v).(type) {
	case *float64:
		return *p
	case *float32:
		return float64(*p)
	case *int64:
		return float64(*p)
	case *int32:
		return float64(*p)
	case *uint64:
		return float64(*p)
	case *bool:
		if *p {
			return 1
		}
	}
	return 0
}

// isZeroValue reports whether v is the machine zero of V (false for bool).
// Note this is the *storage* zero used by Compact's explicit-zero dropping,
// not a semiring's additive identity (MinPlus keeps +Inf ≠ 0 entries).
func isZeroValue[V semiring.Value](v V) bool {
	var zero V
	return v == zero
}

// MapValues converts m entry-by-entry through f, preserving structure and
// the Sorted flag. It is the bridge between value types: e.g. a float64
// adjacency matrix becomes a bool pattern via
// MapValues(m, func(v float64) bool { return v != 0 }).
func MapValues[V, U semiring.Value](m *CSRG[V], f func(V) U) *CSRG[U] {
	out := &CSRG[U]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    make([]U, len(m.Val)),
		Sorted: m.Sorted,
	}
	for i, v := range m.Val {
		out.Val[i] = f(v)
	}
	return out
}
