package obsv

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceNesting(t *testing.T) {
	tr := NewTrace("request")
	reg := tr.Root().Child("registry")
	time.Sleep(time.Millisecond)
	reg.End()

	kernel := tr.Root().Child("kernel")
	kernel.Stage("core.count", 2*time.Millisecond)
	r0 := kernel.Child("peel.round[0]")
	r0.End()
	kernel.End()
	tr.Stage("render", 500*time.Microsecond)

	n := tr.Snapshot()
	if n.Name != "request" {
		t.Fatalf("root name = %q", n.Name)
	}
	if len(n.Children) != 3 {
		t.Fatalf("root children = %d, want 3: %+v", len(n.Children), n)
	}
	if n.Children[0].Name != "registry" || n.Children[1].Name != "kernel" || n.Children[2].Name != "render" {
		t.Fatalf("child order wrong: %+v", n.Children)
	}
	k := n.Children[1]
	if len(k.Children) != 2 || k.Children[0].Name != "core.count" || k.Children[1].Name != "peel.round[0]" {
		t.Fatalf("kernel children: %+v", k.Children)
	}
	if n.Children[0].DurUS < 900 {
		t.Fatalf("registry dur %dus, want ≥ ~1ms", n.Children[0].DurUS)
	}
	if k.Children[0].DurUS < 1900 || k.Children[0].DurUS > 2100 {
		t.Fatalf("stage dur %dus, want ~2000", k.Children[0].DurUS)
	}
	// Stage start offsets are monotonic and within the trace.
	if k.Children[0].StartUS < 0 || n.Children[2].StartUS < n.Children[0].StartUS {
		t.Fatalf("offsets wrong: %+v", n)
	}
}

func TestTraceOpenSpanReportsLiveDuration(t *testing.T) {
	tr := NewTrace("r")
	_ = tr.Root().Child("open")
	time.Sleep(time.Millisecond)
	n := tr.Snapshot()
	if len(n.Children) != 1 || n.Children[0].DurUS < 900 {
		t.Fatalf("open span should report live duration: %+v", n)
	}
	// Root itself is open too.
	if n.DurUS < 900 {
		t.Fatalf("root live duration = %dus", n.DurUS)
	}
}

func TestTraceChildCap(t *testing.T) {
	tr := NewTrace("r")
	sp := tr.Root().Child("kernel")
	for i := 0; i < MaxChildren+10; i++ {
		sp.Stage(fmt.Sprintf("peel.round[%d]", i), time.Microsecond)
	}
	sp.End()
	n := tr.Snapshot()
	k := n.Children[0]
	if len(k.Children) != MaxChildren {
		t.Fatalf("children = %d, want cap %d", len(k.Children), MaxChildren)
	}
	if k.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", k.Dropped)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Stage("x", time.Second)
	if tr.Elapsed() != 0 {
		t.Fatal("nil Elapsed")
	}
	sp := tr.Root()
	if sp != nil {
		t.Fatal("nil trace root should be nil span")
	}
	sp.Stage("x", 0)
	sp.Child("y").End()
	if sp.Hook() != nil {
		t.Fatal("nil span Hook should be nil")
	}
	if n := tr.Snapshot(); n.Name != "" || len(tr.Stages()) != 0 {
		t.Fatalf("nil snapshot: %+v", n)
	}
}

func TestTraceConcurrentStages(t *testing.T) {
	tr := NewTrace("r")
	sp := tr.Root().Child("kernel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp.Stage(fmt.Sprintf("w%d", i), time.Microsecond)
				_ = tr.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	sp.End()
	n := tr.Snapshot()
	if got := len(n.Children[0].Children) + n.Children[0].Dropped; got != 800 {
		t.Fatalf("recorded+dropped = %d, want 800", got)
	}
}

func TestStages(t *testing.T) {
	tr := NewTrace("r")
	tr.Stage("admission", 3*time.Millisecond)
	k := tr.Root().Child("kernel")
	k.Stage("inner", time.Millisecond) // nested: not a top-level stage
	k.End()
	st := tr.Stages()
	if len(st) != 2 || st[0].Name != "admission" || st[1].Name != "kernel" {
		t.Fatalf("stages = %+v", st)
	}
	if st[0].Dur < 2900*time.Microsecond || st[0].Dur > 3100*time.Microsecond {
		t.Fatalf("admission dur = %v", st[0].Dur)
	}
}

func TestSubStages(t *testing.T) {
	tr := NewTrace("r")
	m := tr.Root().Child("mutate")
	m.Stage("wal.append", time.Millisecond)
	m.Stage("snapshot", 2*time.Millisecond)
	m.End()
	k := tr.Root().Child("kernel")
	k.Stage("core.count", time.Millisecond)
	k.End()
	st := tr.SubStages("mutate")
	if len(st) != 2 || st[0].Name != "wal.append" || st[1].Name != "snapshot" {
		t.Fatalf("sub-stages = %+v", st)
	}
	if st[1].Dur < 1900*time.Microsecond || st[1].Dur > 2100*time.Microsecond {
		t.Fatalf("snapshot dur = %v", st[1].Dur)
	}
	if got := tr.SubStages("parse"); len(got) != 0 {
		t.Fatalf("absent parent has sub-stages %+v", got)
	}
	var nilTrace *Trace
	if nilTrace.SubStages("mutate") != nil {
		t.Fatal("nil trace has sub-stages")
	}
}

// Stage records a completed stage of duration d as a child of the root
// span, ending now.
func (t *Trace) Stage(name string, d time.Duration) { t.Root().Stage(name, d) }
