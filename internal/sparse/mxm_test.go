package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
)

func TestMxMKnown(t *testing.T) {
	a := FromDense(dense.NewFromRows([][]int64{{1, 2}, {0, 3}}), false)
	b := FromDense(dense.NewFromRows([][]int64{{4, 0}, {5, 6}}), false)
	p := MxM(a, b)
	want := dense.NewFromRows([][]int64{{14, 12}, {15, 18}})
	if !ToDense(p).Equal(want) {
		t.Fatalf("MxM = %v, want %v", ToDense(p), want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMxMShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MxM shape mismatch did not panic")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	MxM(randCSR(rng, 2, 3, 0.5), randCSR(rng, 2, 3, 0.5))
}

func TestQuickMxMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		da := randDense(rng, m, k, 0.5, 4)
		db := randDense(rng, k, n, 0.5, 4)
		p := MxM(FromDense(da, false), FromDense(db, false))
		if p.Validate() != nil {
			return false
		}
		return ToDense(p).Equal(da.Mul(db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMxMPatternMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		da := randDense(rng, m, k, 0.5, 1)
		db := randDense(rng, k, n, 0.5, 1)
		p := MxM(FromDense(da, true), FromDense(db, true))
		return ToDense(p).Equal(da.Mul(db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWorkspace(1)
	for trial := 0; trial < 30; trial++ {
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		da := randDense(rng, m, k, 0.5, 3)
		db := randDense(rng, k, n, 0.5, 3)
		p := MxMWith(w, FromDense(da, false), FromDense(db, false))
		if !ToDense(p).Equal(da.Mul(db)) {
			t.Fatalf("trial %d: workspace-reused product wrong", trial)
		}
	}
}

func TestQuickMxMMaskedMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		da := randDense(rng, m, k, 0.5, 3)
		db := randDense(rng, k, n, 0.5, 3)
		dm := randDense(rng, m, n, 0.5, 1)
		got := MxMMasked(FromDense(da, false), FromDense(db, false), FromDense(dm, true))
		if got.Validate() != nil {
			return false
		}
		// Dense reference: (A·B) ∘ mask-pattern, then compare patterns of
		// nonzero mask entries; masked SpGEMM keeps an entry whenever the
		// product has a stored (≠ guaranteed nonzero) value there, so
		// compare values position-wise where mask is set.
		prod := da.Mul(db)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if dm.At(i, j) == 0 {
					if got.At(i, j) != 0 {
						return false
					}
					continue
				}
				if got.At(i, j) != prod.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMMaskedShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 3, 4, 0.5)
	b := randCSR(rng, 4, 5, 0.5)
	badMask := randCSR(rng, 3, 4, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("MxMMasked bad mask did not panic")
		}
	}()
	MxMMasked(a, b, badMask)
}

func TestQuickDotRowsMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(8)+2, rng.Intn(8)+1
		da := randDense(rng, m, n, 0.5, 3)
		a := FromDense(da, false)
		i, j := rng.Intn(m), rng.Intn(m)
		var want int64
		for c := 0; c < n; c++ {
			want += da.At(i, c) * da.At(j, c)
		}
		return DotRows(a, i, a, j) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// AAᵀ over PlusTimes gives the wedge-count matrix B of the paper.
func TestQuickAATIsWedgeMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		da := randDense(rng, rng.Intn(7)+1, rng.Intn(7)+1, 0.5, 1)
		a := FromDense(da, true)
		b := MxM(a, Transpose(a))
		return ToDense(b).Equal(da.MulTranspose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMxMAAT(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	a := randCSR(rng, 1000, 800, 0.01)
	at := Transpose(a)
	w := NewWorkspace(a.R)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MxMWith(w, a, at)
	}
}
