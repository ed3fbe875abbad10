package sparse

import "butterfly/internal/dense"

// Transpose returns Aᵀ in CSR form using a counting sort over columns;
// O(nnz + R + C) time, no comparison sort.
func Transpose(a *CSR) *CSR {
	t := &CSR{R: a.C, C: a.R, Ptr: make([]int64, a.C+1)}
	nnz := a.NNZ()
	t.Col = make([]int32, nnz)
	if a.Val != nil {
		t.Val = make([]int64, nnz)
	}

	for _, j := range a.Col {
		t.Ptr[j+1]++
	}
	for j := 0; j < a.C; j++ {
		t.Ptr[j+1] += t.Ptr[j]
	}
	// next[j] is the insertion cursor for row j of the transpose.
	next := make([]int64, a.C)
	copy(next, t.Ptr[:a.C])
	for i := 0; i < a.R; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			j := a.Col[k]
			pos := next[j]
			next[j]++
			t.Col[pos] = int32(i)
			if a.Val != nil {
				t.Val[pos] = a.Val[k]
			}
		}
	}
	return t
}

// FromDense builds a CSR matrix from a dense one, storing every non-zero
// entry. If pattern is true, values are dropped (entries become implicit
// 1s) — entries must then be 0/1.
func FromDense(m *dense.Matrix, pattern bool) *CSR {
	a := &CSR{R: m.Rows, C: m.Cols, Ptr: make([]int64, m.Rows+1)}
	if !pattern {
		a.Val = []int64{}
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			if v == 0 {
				continue
			}
			if pattern && v != 1 {
				panic("sparse: FromDense pattern conversion of non-binary matrix")
			}
			a.Col = append(a.Col, int32(j))
			if !pattern {
				a.Val = append(a.Val, v)
			}
			a.Ptr[i+1]++
		}
	}
	for i := 0; i < m.Rows; i++ {
		a.Ptr[i+1] += a.Ptr[i]
	}
	return a
}

// ToDense expands a CSR matrix to dense form (test/debug helper).
func ToDense(a *CSR) *dense.Matrix {
	m := dense.New(a.R, a.C)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		vals := a.RowVals(i)
		for k, j := range row {
			v := int64(1)
			if vals != nil {
				v = vals[k]
			}
			m.Set(i, int(j), v)
		}
	}
	return m
}
