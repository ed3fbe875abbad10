package sparse

import "fmt"

// DupPolicy says how the COO builder combines duplicate (i, j) entries.
type DupPolicy int

const (
	// DupSum adds duplicate values (the default GraphBLAS build).
	DupSum DupPolicy = iota
	// DupBinary keeps a single entry with value 1 regardless of the
	// duplicate values — the right policy for adjacency patterns of
	// simple graphs.
	DupBinary
)

// COO is an append-only coordinate-format builder for sparse matrices.
type COO struct {
	R, C int
	I, J []int32
	V    []int64 // nil until a value is appended; pattern otherwise
}

// NewCOO returns an empty builder for an r×c matrix.
func NewCOO(r, c int) *COO {
	if r < 0 || c < 0 {
		panic("sparse: negative COO dimension " + dims(r, c))
	}
	return &COO{R: r, C: c}
}

// Add appends a pattern entry (value 1) at (i, j).
func (b *COO) Add(i, j int) { b.AddVal(i, j, 1) }

// AddVal appends an entry with an explicit value.
func (b *COO) AddVal(i, j int, v int64) {
	if i < 0 || i >= b.R || j < 0 || j >= b.C {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of range %s", i, j, dims(b.R, b.C)))
	}
	if b.V == nil && v != 1 {
		// Materialize values for all previous implicit-1 entries.
		b.V = make([]int64, len(b.I), cap(b.I))
		for k := range b.V {
			b.V[k] = 1
		}
	}
	b.I = append(b.I, int32(i))
	b.J = append(b.J, int32(j))
	if b.V != nil {
		b.V = append(b.V, v)
	}
}

// ToCSR buckets, sorts, deduplicates and compresses the builder into
// CSR form. A counting pass over the row indices sizes the rows and a
// scatter pass fills them in append order, O(R + nnz); each row is then
// sorted with sortInt32 and its duplicates merged in place. When DupSum
// has explicit values to carry, the rows are sorted instead by two
// counting-sort transposes, O(R + C + nnz), which move each value with
// its column. The builder remains usable afterwards.
func (b *COO) ToCSR(dup DupPolicy) *CSR {
	n := len(b.I)
	out := &CSR{R: b.R, C: b.C, Ptr: make([]int64, b.R+1), Col: make([]int32, n)}
	carry := dup == DupSum && b.V != nil
	if carry {
		out.Val = make([]int64, n)
	}
	for _, i := range b.I {
		out.Ptr[i+1]++
	}
	for i := 0; i < b.R; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	// Scatter with Ptr[i] as row i's cursor. Afterwards Ptr[i] holds the
	// end of row i, so shifting Ptr right by one restores the offsets.
	for k, i := range b.I {
		pos := out.Ptr[i]
		out.Ptr[i]++
		out.Col[pos] = b.J[k]
		if carry {
			out.Val[pos] = b.V[k]
		}
	}
	copy(out.Ptr[1:], out.Ptr[:b.R])
	out.Ptr[0] = 0

	if carry {
		out = Transpose(Transpose(out))
	} else {
		for i := 0; i < b.R; i++ {
			sortInt32(out.Row(i))
		}
		// DupSum must materialize values even for an implicit-1 builder:
		// duplicate pattern entries sum to their multiplicity.
		if dup == DupSum {
			out.Val = make([]int64, n)
			for k := range out.Val {
				out.Val[k] = 1
			}
		}
	}
	out.dedupRows()
	return out
}

// dedupRows merges the equal adjacent columns of every sorted row in
// place, summing their values when the matrix has any, and trims the
// storage.
func (a *CSR) dedupRows() {
	var w, start int64
	for i := 0; i < a.R; i++ {
		end := a.Ptr[i+1]
		for k := start; k < end; k++ {
			// Col[k-1] is still unwritten or rewritten with itself: w ≤ k.
			if k > start && a.Col[k] == a.Col[k-1] {
				if a.Val != nil {
					a.Val[w-1] += a.Val[k]
				}
				continue
			}
			a.Col[w] = a.Col[k]
			if a.Val != nil {
				a.Val[w] = a.Val[k]
			}
			w++
		}
		start = end
		a.Ptr[i+1] = w
	}
	a.Col = a.Col[:w]
	if a.Val != nil {
		a.Val = a.Val[:w]
	}
}
