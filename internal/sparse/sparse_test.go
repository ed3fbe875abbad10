package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
)

// randDense returns a random m×n matrix; binary when maxVal == 1.
func randDense(rng *rand.Rand, m, n int, density float64, maxVal int64) *dense.Matrix {
	d := dense.New(m, n)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = 1 + rng.Int63n(maxVal)
		}
	}
	return d
}

func randCSR(rng *rand.Rand, m, n int, density float64) *CSR {
	return FromDense(randDense(rng, m, n, density, 1), true)
}

func randCSRVals(rng *rand.Rand, m, n int, density float64) *CSR {
	return FromDense(randDense(rng, m, n, density, 5), false)
}

func TestEmptyCSR(t *testing.T) {
	a := NewCOO(3, 4).ToCSR(DupBinary)
	if a.NNZ() != 0 || a.R != 3 || a.C != 4 {
		t.Fatalf("empty CSR wrong: nnz=%d %dx%d", a.NNZ(), a.R, a.C)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(2, 3) != 0 {
		t.Fatal("At on empty matrix should be 0")
	}
}

func TestCOOBuildPattern(t *testing.T) {
	b := NewCOO(3, 3)
	b.Add(0, 1)
	b.Add(2, 0)
	b.Add(0, 0)
	b.Add(2, 2)
	a := b.ToCSR(DupBinary)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", a.NNZ())
	}
	if !a.IsPattern() {
		t.Fatal("expected pattern matrix")
	}
	if a.At(0, 0) != 1 || a.At(0, 1) != 1 || a.At(2, 0) != 1 || a.At(2, 2) != 1 {
		t.Fatal("missing entries")
	}
	if a.At(1, 1) != 0 {
		t.Fatal("phantom entry at (1,1)")
	}
}

func TestCOODuplicatesBinary(t *testing.T) {
	b := NewCOO(2, 2)
	b.Add(1, 1)
	b.Add(1, 1)
	b.Add(1, 1)
	a := b.ToCSR(DupBinary)
	if a.NNZ() != 1 || a.At(1, 1) != 1 {
		t.Fatalf("binary dedup failed: nnz=%d val=%d", a.NNZ(), a.At(1, 1))
	}
}

func TestCOODuplicatesSum(t *testing.T) {
	b := NewCOO(2, 2)
	b.AddVal(0, 1, 2)
	b.AddVal(0, 1, 3)
	b.AddVal(1, 0, 4)
	a := b.ToCSR(DupSum)
	if a.At(0, 1) != 5 || a.At(1, 0) != 4 {
		t.Fatalf("sum dedup failed: %d, %d", a.At(0, 1), a.At(1, 0))
	}
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", a.NNZ())
	}
}

func TestCOOMaterializesValuesLazily(t *testing.T) {
	b := NewCOO(2, 2)
	b.Add(0, 0)       // implicit 1
	b.AddVal(1, 1, 7) // forces value materialization
	a := b.ToCSR(DupSum)
	if a.At(0, 0) != 1 || a.At(1, 1) != 7 {
		t.Fatalf("lazy materialization broken: %d, %d", a.At(0, 0), a.At(1, 1))
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("COO.Add out of range did not panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0)
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := NewCOO(2, 2)
	good.Add(0, 0)
	good.Add(0, 1)
	a := good.ToCSR(DupBinary)

	cases := map[string]func(*CSR){
		"badPtrLen":    func(c *CSR) { c.Ptr = c.Ptr[:1] },
		"ptrNotZero":   func(c *CSR) { c.Ptr[0] = 1 },
		"ptrDecrease":  func(c *CSR) { c.Ptr[1] = 5; c.Ptr[2] = 2 },
		"colOutRange":  func(c *CSR) { c.Col[0] = 9 },
		"colUnsorted":  func(c *CSR) { c.Col[0], c.Col[1] = c.Col[1], c.Col[0] },
		"colDuplicate": func(c *CSR) { c.Col[1] = c.Col[0] },
	}
	for name, corrupt := range cases {
		c := a.Clone()
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate did not catch corruption", name)
		}
	}
}

func TestAtBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDense(rng, 20, 30, 0.3, 5)
	a := FromDense(d, false)
	for i := 0; i < 20; i++ {
		for j := 0; j < 30; j++ {
			if a.At(i, j) != d.At(i, j) {
				t.Fatalf("At(%d,%d) = %d, want %d", i, j, a.At(i, j), d.At(i, j))
			}
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSRVals(rng, 8, 8, 0.4)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	if b.NNZ() > 0 {
		b.Val[0]++
		if a.Equal(b) {
			t.Fatal("value change not detected")
		}
	}
}

func TestEqualPatternVsExplicitOnes(t *testing.T) {
	b := NewCOO(2, 2)
	b.Add(0, 1)
	pat := b.ToCSR(DupBinary)
	explicit := pat.Clone()
	explicit.Val = []int64{1}
	if !pat.Equal(explicit) {
		t.Fatal("pattern should equal explicit all-ones matrix")
	}
	explicit.Val[0] = 2
	if pat.Equal(explicit) {
		t.Fatal("pattern should not equal matrix with value 2")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randCSRVals(rng, rng.Intn(10)+1, rng.Intn(10)+1, rng.Float64())
		tt := Transpose(Transpose(a))
		if !a.Equal(tt) {
			t.Fatalf("trial %d: double transpose differs", trial)
		}
		if err := Transpose(a).Validate(); err != nil {
			t.Fatalf("trial %d: transpose invalid: %v", trial, err)
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randDense(rng, 7, 11, 0.35, 4)
	got := ToDense(Transpose(FromDense(d, false)))
	if !got.Equal(d.Transpose()) {
		t.Fatal("sparse transpose != dense transpose")
	}
}

func TestFromDensePatternNonBinaryPanics(t *testing.T) {
	d := dense.New(1, 1)
	d.Set(0, 0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("FromDense pattern of non-binary did not panic")
		}
	}()
	FromDense(d, true)
}

func TestQuickDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randDense(rng, rng.Intn(10)+1, rng.Intn(10)+1, rng.Float64(), 6)
		return ToDense(FromDense(d, false)).Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCOOOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(8)+1, rng.Intn(8)+1
		type e struct{ i, j int }
		var edges []e
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, e{i, j})
				}
			}
		}
		b1 := NewCOO(m, n)
		for _, ed := range edges {
			b1.Add(ed.i, ed.j)
		}
		b2 := NewCOO(m, n)
		for _, k := range rng.Perm(len(edges)) {
			b2.Add(edges[k].i, edges[k].j)
		}
		return b1.ToCSR(DupBinary).Equal(b2.ToCSR(DupBinary))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 10, 23, 24, 100, 1000} {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Intn(500))
		}
		sortInt32(s)
		for i := 1; i < n; i++ {
			if s[i-1] > s[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

// FuzzCOOBuild drives the COO builder with fuzz bytes and checks the
// compressed result against a naive map-based construction. The first
// two bytes pick the dimensions, up to 64×64, so a row can hold more
// entries than sortInt32's insertion-sort cutoff; each following byte
// triple is one entry (row, column, value).
func FuzzCOOBuild(f *testing.F) {
	f.Add([]byte{7, 5, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{})
	f.Add([]byte{7, 5, 0, 0, 0, 0, 255, 255})
	// One 64-column row filled in descending column order, twice.
	long := []byte{0, 63}
	for rep := 0; rep < 2; rep++ {
		for j := 63; j >= 0; j-- {
			long = append(long, 0, byte(j), byte(j))
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := int(data[0])%64+1, int(data[1])%64+1
		b := NewCOO(m, n)
		ref := map[[2]int]int64{}
		for i := 2; i+2 < len(data); i += 3 {
			u := int(data[i]) % m
			v := int(data[i+1]) % n
			val := int64(data[i+2])%5 + 1
			b.AddVal(u, v, val)
			ref[[2]int{u, v}] += val
		}
		a := b.ToCSR(DupSum)
		pat := b.ToCSR(DupBinary)
		for _, c := range []*CSR{a, pat} {
			// Validate also requires every row to be strictly increasing.
			if err := c.Validate(); err != nil {
				t.Fatalf("invalid CSR: %v", err)
			}
		}
		if a.NNZ() != int64(len(ref)) {
			t.Fatalf("nnz %d, want %d", a.NNZ(), len(ref))
		}
		for k, want := range ref {
			if got := a.At(k[0], k[1]); got != want {
				t.Fatalf("At(%d,%d) = %d, want %d", k[0], k[1], got, want)
			}
		}
		if !pat.IsPattern() || !slices.Equal(pat.Ptr, a.Ptr) || !slices.Equal(pat.Col, a.Col) {
			t.Fatal("DupBinary pattern differs from the DupSum pattern")
		}
		swapped := &COO{R: n, C: m, I: b.J, J: b.I, V: b.V}
		if !swapped.ToCSR(DupSum).Equal(Transpose(a)) {
			t.Fatal("ToCSR of the swapped builder differs from Transpose(ToCSR)")
		}
	})
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

// Len returns the number of appended entries (before dedup).
func (b *COO) Len() int { return len(b.I) }
