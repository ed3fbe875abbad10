package sparse

// Monoid is a commutative monoid over int64 used as the "add" of a
// semiring.
type Monoid struct {
	Identity int64
	Op       func(a, b int64) int64
}

// Semiring pairs an additive monoid with a multiplicative operator, in
// the GraphBLAS sense. Mul need not be commutative.
type Semiring struct {
	Add Monoid
	Mul func(a, b int64) int64
}

// Predefined monoids.
var (
	// PlusMonoid is ordinary integer addition.
	PlusMonoid = Monoid{Identity: 0, Op: func(a, b int64) int64 { return a + b }}
	// OrMonoid is logical OR on 0/1 values.
	OrMonoid = Monoid{Identity: 0, Op: func(a, b int64) int64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}}
)

// Predefined semirings.
var (
	// PlusTimes is the arithmetic semiring; A·B over it is the ordinary
	// matrix product. AAᵀ over PlusTimes yields wedge counts.
	PlusTimes = Semiring{Add: PlusMonoid, Mul: func(a, b int64) int64 { return a * b }}
	// PlusPair counts structural matches: every aligned pair of stored
	// entries contributes 1 regardless of values. For 0/1 matrices it
	// agrees with PlusTimes; for general values it counts intersections.
	PlusPair = Semiring{Add: PlusMonoid, Mul: func(a, b int64) int64 { return 1 }}
	// OrAnd is the boolean semiring; products have value 1 wherever any
	// structural match exists.
	OrAnd = Semiring{Add: OrMonoid, Mul: func(a, b int64) int64 {
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	}}
)
