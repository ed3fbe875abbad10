package sparse

import (
	"sync"
	"sync/atomic"
)

// mxmChunk is the number of output rows a worker claims per atomic
// fetch in MxMParallel.
const mxmChunk = 128

// MxMParallel computes the integer product A·B with `threads` workers.
// Gustavson's algorithm is row-parallel: each output row depends only
// on A's row and B, so workers claim row chunks with an atomic cursor,
// build their fragment with a private workspace, and the fragments are
// stitched into one CSR afterwards. Results are identical to MxM.
func MxMParallel(a, b *CSR, threads int) *CSR {
	if threads <= 1 || a.R < 2*mxmChunk {
		return MxM(a, b)
	}
	if a.C != b.R {
		panic("sparse: MxMParallel shape mismatch " + dims(a.R, a.C) + " · " + dims(b.R, b.C))
	}

	type fragment struct {
		start, end int
		cols       []int32
		vals       []int64
		rowLen     []int32
	}
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		frags  []fragment
		wg     sync.WaitGroup
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewWorkspace(b.C)
			for {
				start := int(cursor.Add(mxmChunk)) - mxmChunk
				if start >= a.R {
					return
				}
				end := start + mxmChunk
				if end > a.R {
					end = a.R
				}
				f := fragment{start: start, end: end, rowLen: make([]int32, end-start)}
				for i := start; i < end; i++ {
					w.reset(b.C)
					arow := a.Row(i)
					avals := a.RowVals(i)
					for k, kc := range arow {
						av := int64(1)
						if avals != nil {
							av = avals[k]
						}
						brow := b.Row(int(kc))
						bvals := b.RowVals(int(kc))
						for t2, j := range brow {
							bv := int64(1)
							if bvals != nil {
								bv = bvals[t2]
							}
							w.scatter(j, av*bv)
						}
					}
					sortInt32(w.list)
					for _, j := range w.list {
						f.cols = append(f.cols, j)
						f.vals = append(f.vals, w.acc[j])
					}
					f.rowLen[i-start] = int32(len(w.list))
				}
				mu.Lock()
				frags = append(frags, f)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Stitch fragments in row order.
	out := &CSR{R: a.R, C: b.C, Ptr: make([]int64, a.R+1)}
	var nnz int64
	for _, f := range frags {
		for i, l := range f.rowLen {
			out.Ptr[f.start+i+1] = int64(l)
		}
		nnz += int64(len(f.cols))
	}
	for i := 0; i < a.R; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	out.Col = make([]int32, nnz)
	out.Val = make([]int64, nnz)
	for _, f := range frags {
		copy(out.Col[out.Ptr[f.start]:], f.cols)
		copy(out.Val[out.Ptr[f.start]:], f.vals)
	}
	return out
}
