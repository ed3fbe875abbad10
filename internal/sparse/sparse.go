// Package sparse provides hand-rolled sparse matrix kernels: CSR
// storage, a COO builder, transposition, sparse matrix–matrix products
// over pluggable semirings, and selections.
//
// The package is the computational substrate for the butterfly-counting
// algorithms: the paper's biadjacency matrix A is held as a pattern CSR
// (implicit 1 values) together with the CSR of its transpose, and the
// AAᵀ products of the linear-algebraic specification run here.
//
// Conventions:
//   - Row/column indices are int32 (graphs of interest are ≪ 2³¹).
//   - Offsets (Ptr) are int64 so nnz may exceed 2³¹.
//   - Values are int64; a nil Val slice denotes a pattern matrix whose
//     stored entries are all implicitly 1.
//   - Column indices within each row are sorted ascending and unique;
//     NewCSR validates this, builders guarantee it.
package sparse

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	R, C int     // dimensions
	Ptr  []int64 // row offsets, len R+1
	Col  []int32 // column indices, len nnz, sorted within each row
	Val  []int64 // values, len nnz, or nil for a pattern matrix
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int64 {
	if len(a.Ptr) == 0 {
		return 0
	}
	return a.Ptr[a.R]
}

// IsPattern reports whether the matrix stores no explicit values
// (all stored entries count as 1).
func (a *CSR) IsPattern() bool { return a.Val == nil }

// Row returns the column indices of row i. The slice aliases internal
// storage; callers must not modify it.
func (a *CSR) Row(i int) []int32 { return a.Col[a.Ptr[i]:a.Ptr[i+1]] }

// RowVals returns the values of row i, or nil for a pattern matrix.
func (a *CSR) RowVals(i int) []int64 {
	if a.Val == nil {
		return nil
	}
	return a.Val[a.Ptr[i]:a.Ptr[i+1]]
}

// RowDeg returns the number of stored entries in row i.
func (a *CSR) RowDeg(i int) int { return int(a.Ptr[i+1] - a.Ptr[i]) }

// At returns the value at (i, j), or 0 if no entry is stored. It binary
// searches row i, so it costs O(log deg(i)).
func (a *CSR) At(i, j int) int64 {
	row := a.Row(i)
	k := sort.Search(len(row), func(k int) bool { return row[k] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		if a.Val == nil {
			return 1
		}
		return a.Val[a.Ptr[i]+int64(k)]
	}
	return 0
}

// Validate checks structural invariants and returns an error describing
// the first violation, or nil.
func (a *CSR) Validate() error {
	if a.R < 0 || a.C < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", a.R, a.C)
	}
	if len(a.Ptr) != a.R+1 {
		return fmt.Errorf("sparse: len(Ptr) = %d, want %d", len(a.Ptr), a.R+1)
	}
	if a.Ptr[0] != 0 {
		return fmt.Errorf("sparse: Ptr[0] = %d, want 0", a.Ptr[0])
	}
	for i := 0; i < a.R; i++ {
		if a.Ptr[i+1] < a.Ptr[i] {
			return fmt.Errorf("sparse: Ptr not monotone at row %d", i)
		}
	}
	nnz := a.Ptr[a.R]
	if int64(len(a.Col)) != nnz {
		return fmt.Errorf("sparse: len(Col) = %d, want %d", len(a.Col), nnz)
	}
	if a.Val != nil && int64(len(a.Val)) != nnz {
		return fmt.Errorf("sparse: len(Val) = %d, want %d", len(a.Val), nnz)
	}
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		for k, c := range row {
			if c < 0 || int(c) >= a.C {
				return fmt.Errorf("sparse: row %d has column %d out of range [0,%d)", i, c, a.C)
			}
			if k > 0 && row[k-1] >= c {
				return fmt.Errorf("sparse: row %d not strictly sorted at position %d", i, k)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	b := &CSR{R: a.R, C: a.C,
		Ptr: append([]int64(nil), a.Ptr...),
		Col: append([]int32(nil), a.Col...),
	}
	if a.Val != nil {
		b.Val = append([]int64(nil), a.Val...)
	}
	return b
}

// Equal reports whether a and b have identical shape, pattern and values
// (a pattern matrix equals a value matrix whose stored values are all 1).
func (a *CSR) Equal(b *CSR) bool {
	if a.R != b.R || a.C != b.C || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.R; i++ {
		if a.Ptr[i] != b.Ptr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] {
			return false
		}
	}
	for k := int64(0); k < a.NNZ(); k++ {
		av, bv := int64(1), int64(1)
		if a.Val != nil {
			av = a.Val[k]
		}
		if b.Val != nil {
			bv = b.Val[k]
		}
		if av != bv {
			return false
		}
	}
	return true
}

// Dims formats the dimensions for error messages.
func dims(r, c int) string { return fmt.Sprintf("%dx%d", r, c) }
