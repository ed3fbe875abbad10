package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMxMParallelSmallDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSRVals(rng, 10, 8, 0.5)
	b := randCSRVals(rng, 8, 12, 0.5)
	if !MxMParallel(a, b, 4).Equal(MxM(a, b)) {
		t.Fatal("small-matrix delegation differs")
	}
}

func TestMxMParallelMatchesSequentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCSR(rng, 1500, 900, 0.01)
	b := randCSR(rng, 900, 1100, 0.01)
	want := MxM(a, b)
	for _, threads := range []int{2, 3, 8} {
		got := MxMParallel(a, b, threads)
		if err := got.Validate(); err != nil {
			t.Fatalf("threads=%d: invalid result: %v", threads, err)
		}
		if !got.Equal(want) {
			t.Fatalf("threads=%d differs from sequential", threads)
		}
	}
}

func TestQuickMxMParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Mix of sizes straddling the delegation threshold.
		m := rng.Intn(600) + 1
		k := rng.Intn(40) + 1
		n := rng.Intn(40) + 1
		a := randCSRVals(rng, m, k, 0.2)
		b := randCSRVals(rng, k, n, 0.2)
		return MxMParallel(a, b, 4).Equal(MxM(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMParallelShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 600, 5, 0.2)
	b := randCSR(rng, 6, 5, 0.2)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MxMParallel(a, b, 4)
}

func BenchmarkMxMParallelAAT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 3000, 2000, 0.005)
	at := Transpose(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MxMParallel(a, at, 6)
	}
}
