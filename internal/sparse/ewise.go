package sparse

import (
	"fmt"

	"butterfly/internal/bitvec"
)

// Select returns a copy of a keeping only entries whose (row, col,
// value) satisfy keep. Dropped entries are removed from the pattern.
func Select(a *CSR, keep func(i int, j int32, v int64) bool) *CSR {
	out := &CSR{R: a.R, C: a.C, Ptr: make([]int64, a.R+1)}
	hasVals := a.Val != nil
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		vals := a.RowVals(i)
		for k, j := range row {
			v := int64(1)
			if vals != nil {
				v = vals[k]
			}
			if !keep(i, j, v) {
				continue
			}
			out.Col = append(out.Col, j)
			if hasVals {
				out.Val = append(out.Val, v)
			}
		}
		out.Ptr[i+1] = int64(len(out.Col))
	}
	return out
}

// ZeroRowsCols returns a copy of a with all entries removed whose row is
// cleared in rowKeep or whose column is cleared in colKeep. A nil mask
// keeps everything on that axis. This implements the paper's
// mask-application steps (22) and the row/column consequences of (21).
func ZeroRowsCols(a *CSR, rowKeep, colKeep *bitvec.Vector) *CSR {
	if rowKeep != nil && rowKeep.Len() != a.R {
		panic(fmt.Sprintf("sparse: ZeroRowsCols row mask length %d, want %d", rowKeep.Len(), a.R))
	}
	if colKeep != nil && colKeep.Len() != a.C {
		panic(fmt.Sprintf("sparse: ZeroRowsCols col mask length %d, want %d", colKeep.Len(), a.C))
	}
	return Select(a, func(i int, j int32, v int64) bool {
		if rowKeep != nil && !rowKeep.Get(i) {
			return false
		}
		if colKeep != nil && !colKeep.Get(int(j)) {
			return false
		}
		return true
	})
}
