package sparse

import (
	"math/rand"
	"testing"

	"butterfly/internal/bitvec"
)

func TestSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCSRVals(rng, 6, 6, 0.6)
	kept := Select(a, func(i int, j int32, v int64) bool { return v >= 3 })
	if err := kept.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			v := a.At(i, j)
			want := int64(0)
			if v >= 3 {
				want = v
			}
			if kept.At(i, j) != want {
				t.Fatalf("Select wrong at (%d,%d): %d want %d", i, j, kept.At(i, j), want)
			}
		}
	}
}

func TestZeroRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 6, 5, 0.6)
	rowKeep, colKeep := bitvec.New(6), bitvec.New(5)
	for i := 0; i < 6; i++ {
		if i != 2 {
			rowKeep.Set(i)
		}
	}
	for j := 1; j < 5; j++ {
		colKeep.Set(j)
	}
	b := ZeroRowsCols(a, rowKeep, colKeep)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			want := a.At(i, j)
			if i == 2 || j == 0 {
				want = 0
			}
			if b.At(i, j) != want {
				t.Fatalf("ZeroRowsCols wrong at (%d,%d)", i, j)
			}
		}
	}
	// Nil masks are no-ops.
	if !ZeroRowsCols(a, nil, nil).Equal(a) {
		t.Fatal("nil masks altered matrix")
	}
}

func TestZeroRowsColsBadMaskPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 4, 4, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("bad mask length did not panic")
		}
	}()
	ZeroRowsCols(a, bitvec.New(3), nil)
}

func TestPatternOf(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randCSRVals(rng, 5, 5, 0.5)
	p := PatternOf(a)
	if !p.IsPattern() {
		t.Fatal("PatternOf kept values")
	}
	if p.NNZ() != a.NNZ() {
		t.Fatal("PatternOf changed pattern")
	}
}
