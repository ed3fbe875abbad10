package sparse

import "fmt"

// Workspace holds the per-row dense accumulator used by Gustavson-style
// SpGEMM. One workspace may be reused across many products of the same
// output width; reuse avoids the dominant allocation cost. A workspace
// is not safe for concurrent use — parallel callers allocate one per
// worker.
type Workspace struct {
	acc  []int64 // dense accumulator, len = output columns
	mark []int64 // generation tags: mark[j] == gen means acc[j] is live
	list []int32 // columns touched this row, unsorted
	gen  int64
}

// NewWorkspace returns a workspace for products with ncols output
// columns.
func NewWorkspace(ncols int) *Workspace {
	return &Workspace{
		acc:  make([]int64, ncols),
		mark: make([]int64, ncols),
		list: make([]int32, 0, 256),
		gen:  0,
	}
}

// reset prepares the workspace for a new output row of width ncols,
// growing if necessary.
func (w *Workspace) reset(ncols int) {
	if len(w.acc) < ncols {
		w.acc = make([]int64, ncols)
		w.mark = make([]int64, ncols)
	}
	w.gen++
	w.list = w.list[:0]
}

// scatter adds v into accumulator slot j.
func (w *Workspace) scatter(j int32, v int64) {
	if w.mark[j] != w.gen {
		w.mark[j] = w.gen
		w.acc[j] = v
		w.list = append(w.list, j)
		return
	}
	w.acc[j] += v
}

// MxM computes the integer product A·B, allocating a fresh workspace.
// AAᵀ yields the wedge counts of the paper's B.
func MxM(a, b *CSR) *CSR {
	return MxMWith(NewWorkspace(b.C), a, b)
}

// MxMWith computes the integer product A·B using the supplied workspace.
// Row i of the result is produced by merging the rows of B selected by
// the stored columns of row i of A (Gustavson's algorithm). Output rows
// have sorted, unique columns; the result always carries explicit values.
func MxMWith(w *Workspace, a, b *CSR) *CSR {
	if a.C != b.R {
		panic(fmt.Sprintf("sparse: MxM shape mismatch %s · %s", dims(a.R, a.C), dims(b.R, b.C)))
	}
	out := &CSR{R: a.R, C: b.C, Ptr: make([]int64, a.R+1)}
	out.Col = make([]int32, 0, a.NNZ())
	out.Val = make([]int64, 0, a.NNZ())

	for i := 0; i < a.R; i++ {
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
			for t, j := range brow {
				bv := int64(1)
				if bvals != nil {
					bv = bvals[t]
				}
				w.scatter(j, av*bv)
			}
		}
		emitRow(out, w, i)
	}
	return out
}

// emitRow appends the workspace contents as row i of out, sorted by
// column index via insertion into a sorted copy (rows are short in
// practice; we sort the touch list).
func emitRow(out *CSR, w *Workspace, i int) {
	sortInt32(w.list)
	for _, j := range w.list {
		out.Col = append(out.Col, j)
		out.Val = append(out.Val, w.acc[j])
	}
	out.Ptr[i+1] = out.Ptr[i] + int64(len(w.list))
}

// MxMMasked computes (A·B) ∘ M: only output positions where the mask
// M stores an entry are computed and kept. The mask's values are
// ignored; its pattern is the mask. This is the kernel behind equation
// (25)'s (AAᵀA) ∘ A, which never materializes the dense-ish AAᵀA.
func MxMMasked(a, b, m *CSR) *CSR {
	if a.C != b.R {
		panic(fmt.Sprintf("sparse: MxMMasked shape mismatch %s · %s", dims(a.R, a.C), dims(b.R, b.C)))
	}
	if m.R != a.R || m.C != b.C {
		panic(fmt.Sprintf("sparse: MxMMasked mask shape %s, want %s", dims(m.R, m.C), dims(a.R, b.C)))
	}
	w := NewWorkspace(b.C)
	out := &CSR{R: a.R, C: b.C, Ptr: make([]int64, a.R+1)}
	out.Col = make([]int32, 0, m.NNZ())
	out.Val = make([]int64, 0, m.NNZ())

	for i := 0; i < a.R; i++ {
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
			for t, j := range brow {
				bv := int64(1)
				if bvals != nil {
					bv = bvals[t]
				}
				w.scatter(j, av*bv)
			}
		}
		// Keep only masked positions, in mask order (sorted already).
		for _, j := range m.Row(i) {
			if w.mark[j] == w.gen {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, w.acc[j])
			}
		}
		out.Ptr[i+1] = int64(len(out.Col))
	}
	return out
}

// DotRows returns ⟨row i of a, row j of b⟩ by merging the two sorted
// rows; O(deg(i) + deg(j)).
func DotRows(a *CSR, i int, b *CSR, j int) int64 {
	if a.C != b.C {
		panic(fmt.Sprintf("sparse: DotRows width mismatch %d vs %d", a.C, b.C))
	}
	ra, rb := a.Row(i), b.Row(j)
	va, vb := a.RowVals(i), b.RowVals(j)
	var s int64
	x, y := 0, 0
	for x < len(ra) && y < len(rb) {
		switch {
		case ra[x] < rb[y]:
			x++
		case ra[x] > rb[y]:
			y++
		default:
			av, bv := int64(1), int64(1)
			if va != nil {
				av = va[x]
			}
			if vb != nil {
				bv = vb[y]
			}
			s += av * bv
			x++
			y++
		}
	}
	return s
}

// sortInt32 sorts a short int32 slice ascending. Insertion sort below a
// threshold, pdq-ish shell sort above — output rows of SpGEMM are
// usually tiny and this avoids sort.Slice's interface overhead.
func sortInt32(s []int32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	// Shell sort with Ciura-like gaps: in-place, no allocation, fine for
	// the mid-size rows that show up in dense-ish graphs.
	gaps := [...]int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, g := range gaps {
		for i := g; i < len(s); i++ {
			v := s[i]
			j := i
			for j >= g && s[j-g] > v {
				s[j] = s[j-g]
				j -= g
			}
			s[j] = v
		}
	}
}
