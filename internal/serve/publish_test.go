package serve

import (
	"errors"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly"
)

// arraysChecksum folds every row of both orientations of g, through
// the public neighbor accessors, into one value.
func arraysChecksum(g *butterfly.Graph) uint64 {
	h := fnv.New64a()
	write := func(row []int) {
		h.Write([]byte(strconv.Itoa(len(row)) + ":"))
		for _, x := range row {
			h.Write([]byte(strconv.Itoa(x) + ","))
		}
	}
	for u := 0; u < g.NumV1(); u++ {
		write(g.NeighborsV1(u))
	}
	for v := 0; v < g.NumV2(); v++ {
		write(g.NeighborsV2(v))
	}
	return h.Sum64()
}

// A published version's arrays never change while later mutates patch
// newer versions out of them. Under -race, the readers also prove no
// write reaches storage a reader can see.
func TestOldVersionArraysStable(t *testing.T) {
	g, err := butterfly.GeneratePowerLaw(60, 40, 500, 0.7, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				old, err := reg.Get("g")
				if err != nil {
					t.Error(err)
					return
				}
				sum := arraysChecksum(old.Graph)
				for i := 0; i < 5; i++ {
					if arraysChecksum(old.Graph) != sum {
						t.Errorf("version %d changed after publication", old.Version)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < iters; i++ {
		u, v := (i*7)%60, (i*13)%40
		if _, err := reg.Mutate("g", [][2]int{{u, v}, {v, u % 40}}, [][2]int{{(u + 1) % 60, v}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	cur, _ := reg.Get("g")
	if n := cur.Graph.Count(); n != cur.Count {
		t.Fatalf("recount of the final version %d, maintained %d", n, cur.Count)
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A batch with no net effect — empty, or only duplicate inserts and
// deletes of absent edges — publishes a new version over the previous
// graph itself: nothing the size of the graph is allocated, and the
// degree profile and relayout twin cached on the graph carry over. A
// real insert, by contrast, allocates both orientations' arrays.
func TestNoOpMutateCopiesNoArrays(t *testing.T) {
	g, err := butterfly.GeneratePaperDataset("github", 50)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}
	present := g.Edges()[0]
	absent := [2]int{-1, -1}
	for u := 0; absent[0] < 0; u++ {
		for v := 0; v < g.NumV2(); v++ {
			if !g.HasEdge(u, v) {
				absent = [2]int{u, v}
				break
			}
		}
	}
	arrays := uint64(4 * g.NumEdges()) // one orientation's Col alone
	mutate := func(ins, del [][2]int) (MutateResult, uint64) {
		var res MutateResult
		n := allocated(func() {
			if res, err = reg.Mutate("g", ins, del); err != nil {
				t.Fatal(err)
			}
		})
		return res, n
	}
	for i, batch := range [][2][][2]int{{nil, nil}, {{present}, {absent}}} {
		res, n := mutate(batch[0], batch[1])
		if res.Inserted+res.Deleted != 0 || res.Version != uint64(i+2) || res.Edges != g.NumEdges() {
			t.Fatalf("no-op batch %d: %+v", i, res)
		}
		if n >= arrays {
			t.Fatalf("no-op batch %d allocated %d bytes, a graph's arrays take %d", i, n, arrays)
		}
	}
	if res, n := mutate([][2]int{absent}, nil); res.Inserted != 1 || n < 2*arrays {
		t.Fatalf("real insert allocated %d bytes (%+v), want at least %d", n, res, 2*arrays)
	}
}

// flakyPersister refuses the next LogMutate when fail is set.
type flakyPersister struct{ fail bool }

func (p *flakyPersister) LogRegister(string, uint64, *butterfly.Graph, int64) error { return nil }
func (p *flakyPersister) LogDrop(string) error                                      { return nil }
func (p *flakyPersister) LogMutate(string, uint64, [][2]int, [][2]int, int64, int64) error {
	if p.fail {
		p.fail = false
		return errors.New("disk full")
	}
	return nil
}

// A batch rolled back after a refused WAL append leaves nothing for
// the next publish to patch in.
func TestRolledBackBatchNotPublished(t *testing.T) {
	g, err := butterfly.FromEdges(4, 4, completeEdges(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyPersister{}
	reg := NewRegistry()
	reg.SetPersister(p)
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}
	p.fail = true
	if _, err := reg.Mutate("g", [][2]int{{3, 3}}, [][2]int{{0, 0}}); err == nil {
		t.Fatal("mutate with a failing WAL succeeded")
	}
	if _, err := reg.Mutate("g", [][2]int{{3, 0}}, nil); err != nil {
		t.Fatal(err)
	}
	cur, _ := reg.Get("g")
	want, _ := butterfly.FromEdges(4, 4, append(completeEdges(3, 3), [2]int{3, 0}))
	if !cur.Graph.Equal(want) || cur.Version != 2 || cur.Graph.Count() != cur.Count {
		t.Fatalf("after rollback: version %d, edges %v", cur.Version, cur.Graph.Edges())
	}
}

// MutateObserved reports its sub-stages, and the server feeds them into
// bfserved_stage_seconds.
func TestMutateStages(t *testing.T) {
	g, err := butterfly.FromEdges(4, 4, completeEdges(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.SetPersister(&flakyPersister{})
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}
	stages := func() []string {
		var names []string
		if _, err := reg.MutateObserved("g", nil, [][2]int{{0, 0}}, func(name string, _ time.Duration) {
			names = append(names, name)
		}); err != nil {
			t.Fatal(err)
		}
		return names
	}
	if got := strings.Join(stages(), ","); got != "wal.append,snapshot" {
		t.Fatalf("stages = %s", got)
	}
	if _, _, err := reg.EnablePartialLog("g"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stages(), ","); got != "wal.append,snapshot,partial.delta" {
		t.Fatalf("stages with the partial log = %s", got)
	}

	_, c := newTestServer(t, Config{})
	registerK44(t, c)
	base := urlOf(t, c)
	if resp, _ := rawDo(t, "POST", base+"/v1/graphs/k44/mutate", `{"deletes":[[0,0]]}`); resp.StatusCode != 200 {
		t.Fatalf("mutate status %d", resp.StatusCode)
	}
	_, body := rawDo(t, "GET", base+"/metrics", "")
	if !strings.Contains(string(body), `bfserved_stage_seconds_count{stage="snapshot"} 1`) {
		t.Fatalf("/metrics has no snapshot stage:\n%s", body)
	}
}
