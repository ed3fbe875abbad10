package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != 8 {
		t.Fatalf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != 7 {
		t.Fatalf("Count = %d, want 7", v.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Get":   func() { v.Get(10) },
		"Set":   func() { v.Set(-1) },
		"Clear": func() { v.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}

	or := a.Clone()
	or.Or(b)
	both := 0
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if or.Get(i) != want {
			t.Fatalf("Or bit %d = %v, want %v", i, or.Get(i), want)
		}
		if i%6 == 0 {
			both++
		}
	}

	if got := a.IntersectionCount(b); got != both {
		t.Fatalf("IntersectionCount = %d, want %d", got, both)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !b.Get(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(33), New(33)
	if !a.Equal(b) {
		t.Fatal("two empty vectors unequal")
	}
	a.Set(32)
	if a.Equal(b) {
		t.Fatal("different vectors compare equal")
	}
	b.Set(32)
	if !a.Equal(b) {
		t.Fatal("identical vectors compare unequal")
	}
	if a.Equal(New(34)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if s := v.String(); s != "0101" {
		t.Fatalf("String = %q, want 0101", s)
	}
	long := New(200)
	if s := long.String(); len(s) == 0 {
		t.Fatal("long String is empty")
	}
}

// Property: Count equals the number of indices set, and setting the
// same indices in a fresh vector reconstructs it.
func TestQuickCountMatchesIndices(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
				idx = append(idx, i)
			}
		}
		if len(idx) != v.Count() {
			return false
		}
		w := New(n)
		for _, i := range idx {
			w.Set(i)
		}
		return w.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	v := New(1 << 20)
	fillAll(v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}

func TestReset(t *testing.T) {
	v := New(130)
	fillAll(v)
	v.Reset(130)
	if v.Len() != 130 || v.Count() != 0 {
		t.Fatalf("Reset(same) left len=%d count=%d", v.Len(), v.Count())
	}
	fillAll(v)
	v.Reset(40) // shrink: must reuse storage and clear
	if v.Len() != 40 || v.Count() != 0 {
		t.Fatalf("Reset(shrink) left len=%d count=%d", v.Len(), v.Count())
	}
	v.Set(39)
	v.Reset(500) // grow
	if v.Len() != 500 || v.Count() != 0 {
		t.Fatalf("Reset(grow) left len=%d count=%d", v.Len(), v.Count())
	}
	v.Set(499)
	if v.Count() != 1 {
		t.Fatal("grown vector unusable")
	}
	// Reset within capacity must not allocate.
	allocs := testing.AllocsPerRun(10, func() { v.Reset(200) })
	if allocs != 0 {
		t.Fatalf("Reset within capacity allocated %.1f objects/op", allocs)
	}
}

func TestResetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	New(4).Reset(-1)
}

// fillAll sets every bit of v.
func fillAll(v *Vector) {
	for i := 0; i < v.Len(); i++ {
		v.Set(i)
	}
}
