// Package bitvec provides a compact, fixed-length bit vector used for
// vertex and edge masks throughout the butterfly algorithms.
//
// A Vector of length n stores n bits packed into 64-bit words. The zero
// value is an empty (length-0) vector; use New to allocate one of a given
// length. All index arguments must be in [0, Len()); out-of-range access
// panics like a slice access would.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length sequence of bits.
type Vector struct {
	n     int
	words []uint64
}

// New returns a Vector of length n with all bits cleared.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Reset resizes v to n bits, all cleared, reusing the existing word
// storage when it is large enough. It is the allocation-free analogue of
// assigning New(n) and exists for arena-pooled scratch vectors that are
// recycled across graphs of different sizes.
func (v *Vector) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	w := (n + wordBits - 1) / wordBits
	if cap(v.words) < w {
		v.words = make([]uint64, w)
	} else {
		v.words = v.words[:w]
		for i := range v.words {
			v.words[i] = 0
		}
	}
	v.n = n
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// IntersectionCount returns |v ∧ o| without allocating.
func (v *Vector) IntersectionCount(o *Vector) int {
	v.mustMatch(o)
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] & o.words[i])
	}
	return c
}

// String renders the vector as a 0/1 string, bit 0 first. Long vectors
// are abbreviated.
func (v *Vector) String() string {
	var sb strings.Builder
	limit := v.n
	const max = 128
	if limit > max {
		limit = max
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if v.n > max {
		fmt.Fprintf(&sb, "… (%d bits, %d set)", v.n, v.Count())
	}
	return sb.String()
}
