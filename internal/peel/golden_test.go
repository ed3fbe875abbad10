package peel

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// goldenFile pins every engine entry point's observable output on four
// graphs: a checksum of the result, Rounds, the stage-name sequence, and
// whether KWingWith handed back g itself. Any rewrite of the peel loops
// must reproduce every line.
const goldenFile = "testdata/engines.golden"

// checksum is FNV-1a over int64 words.
type checksum struct{ h uint64 }

func newChecksum() *checksum { return &checksum{h: fnv.New64a().Sum64()} }

func (c *checksum) add(vals ...int64) {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			c.h ^= uint64(byte(v >> (8 * i)))
			c.h *= 1099511628211
		}
	}
}

func numbersSum(vals []int64) uint64 {
	c := newChecksum()
	c.add(int64(len(vals)))
	c.add(vals...)
	return c.h
}

func graphSum(g *graph.Bipartite) uint64 {
	adj := g.Adj()
	c := newChecksum()
	c.add(int64(g.NumV1()), int64(g.NumV2()))
	c.add(adj.Ptr...)
	for _, v := range adj.Col {
		c.add(int64(v))
	}
	return c.h
}

// stageRecorder collects the stage names one run emits.
type stageRecorder struct{ names []string }

func (r *stageRecorder) hook(name string, _ time.Duration) { r.names = append(r.names, name) }

func (r *stageRecorder) String() string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(r.names, ",")))
	return fmt.Sprintf("%d/%016x", len(r.names), h.Sum64())
}

// goldenLines runs the four entry points over every case and renders
// one line per run.
func goldenLines() []string {
	graphs := []struct {
		name string
		g    *graph.Bipartite
	}{
		{"powerlaw-29", gen.PowerLawBipartite(150, 120, 1100, 0.7, 0.7, 29)},
		{"K20,20", gen.CompleteBipartite(20, 20)},
		{"K0,0", gen.CompleteBipartite(0, 0)},
		{"star-5", gen.Star(5)},
	}
	sides := []core.Side{core.SideV1, core.SideV2}
	var lines []string
	for _, gc := range graphs {
		g := gc.g
		for _, eng := range []Engine{EngineDelta, EngineRecount} {
			for _, threads := range []int{1, 3} {
				var rec stageRecorder
				o := Options{Engine: eng, Threads: threads, Stage: rec.hook}
				prefix := fmt.Sprintf("%s %v t%d", gc.name, eng, threads)
				emit := func(what string, sum uint64, st Stats, extra string) {
					lines = append(lines, fmt.Sprintf("%s %s: sum=%016x rounds=%d stages=%v%s", prefix, what, sum, st.Rounds, &rec, extra))
					rec.names = rec.names[:0]
				}
				for _, side := range sides {
					tip, st := TipNumbersWith(g, side, o)
					emit(fmt.Sprintf("tips %v", side), numbersSum(tip), st, "")
				}
				wing, st := WingNumbersWith(g, o)
				emit("wings", numbersSum(wing), st, "")
				for _, k := range []int64{0, 1, 2, 5, 50} {
					for _, side := range sides {
						sub, st := KTipWith(g, k, side, o)
						emit(fmt.Sprintf("ktip %v k%d", side, k), graphSum(sub), st, "")
					}
					sub, st := KWingWith(g, k, o)
					emit(fmt.Sprintf("kwing k%d", k), graphSum(sub), st, fmt.Sprintf(" same=%v", sub == g))
				}
			}
		}
	}
	return lines
}

// TestEnginesGolden compares every run against the pinned line.
func TestEnginesGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines()
	if len(got) != len(want) {
		t.Fatalf("%d runs, %s pins %d", len(got), goldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
