package main

import (
	"encoding/json"
	"strings"
	"testing"

	"butterfly/serveapi"
)

func newTestWork() *work {
	return &work{e2e: map[string]float64{}, layers: layerSet{}, res: &workloadResult{Correct: true, Details: map[string]float64{}}}
}

func TestWrongPaperCountIsCaught(t *testing.T) {
	w := newTestWork()
	w.checkPaperCount("github", 1, paperCounts["github"])
	if w.res.Failed != 0 {
		t.Fatalf("the pinned count was rejected: %v", w.res.Errors)
	}
	w.checkPaperCount("github", 1, paperCounts["github"]+1)
	if w.res.Failed != 1 || !strings.Contains(w.res.Errors[0], "github@1") {
		t.Errorf("an off-by-one count was not caught: failed=%d %v", w.res.Failed, w.res.Errors)
	}
	// Off the pinned scale, the first answer is the oracle for the rest.
	w.checkPaperCount("github", 50, 7)
	w.checkPaperCount("github", 50, 8)
	if w.res.Failed != 2 {
		t.Errorf("a count differing from the first one at scale 50 was not caught")
	}
}

func TestWrongReadIsCaught(t *testing.T) {
	const count = 1000
	body := func(v any) []byte { b, _ := json.Marshal(v); return b }
	for _, c := range []struct {
		kind string
		ok   any
		bad  any
	}{
		{"count", serveapi.CountResponse{Butterflies: count}, serveapi.CountResponse{Butterflies: count - 1}},
		{"vertex-counts", serveapi.VertexCountsResponse{Total: 2 * count}, serveapi.VertexCountsResponse{Total: count}},
		{"edge-supports", serveapi.EdgeSupportsResponse{Total: 4 * count}, serveapi.EdgeSupportsResponse{Total: 2 * count}},
		{"estimate", serveapi.EstimateResponse{Estimate: 990}, serveapi.EstimateResponse{Estimate: 0}},
		{"peel", serveapi.PeelResponse{Butterflies: 10}, serveapi.PeelResponse{Butterflies: count + 1}},
	} {
		req := readReq{kind: c.kind}
		if err := checkRead(req, body(c.ok), count); err != nil {
			t.Errorf("%s: a right answer was rejected: %v", c.kind, err)
		}
		if err := checkRead(req, body(c.bad), count); err == nil {
			t.Errorf("%s: a wrong answer was accepted", c.kind)
		}
	}
}

func TestLedgerCatchesStaleAndWrongCounts(t *testing.T) {
	g, err := graphFromEdges(3, 3, [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	l := newLedger(1, 1)
	l.mutated(batch{version: 2, inserts: [][2]int{{2, 0}, {2, 1}}}, 3)
	l.read(1, 1)  // right for version 1
	l.read(2, 3)  // right for version 2
	l.read(2, 1)  // version 2 answered with version 1's count
	l.read(9, 42) // never acknowledged: nothing to check against
	w := newTestWork()
	if err := w.verify(l, g, 3); err != nil {
		t.Fatal(err)
	}
	if w.res.Failed != 1 {
		t.Errorf("failed = %d, want 1 (the stale read): %v", w.res.Failed, w.res.Errors)
	}
	// The final count must match a local replay of every batch.
	w = newTestWork()
	if err := w.verify(l, g, 4); err != nil {
		t.Fatal(err)
	}
	if w.res.Failed != 2 || !strings.Contains(strings.Join(w.res.Errors, " "), "local replay") {
		t.Errorf("a final count differing from the replay was not caught: %v", w.res.Errors)
	}
}

func TestMutatorKeepsConnectionsDisjoint(t *testing.T) {
	g, err := generate("arxiv-cond-mat", 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]int{}
	for k := 0; k < 2; k++ {
		m := newMutator(g, k, 2, 7)
		live := map[[2]int]bool{}
		for i := 0; i < 50; i++ {
			ins, dels := m.next()
			if len(ins) != 4 {
				t.Fatalf("batch with %d inserts", len(ins))
			}
			for _, e := range ins {
				if e[0]%2 != k || g.HasEdge(e[0], e[1]) || live[e] {
					t.Fatalf("conn %d inserted %v: wrong residue, or already present", k, e)
				}
				live[e] = true
				seen[e]++
			}
			for _, e := range dels {
				if !live[e] {
					t.Fatalf("conn %d deleted %v, which it does not own", k, e)
				}
				delete(live, e)
			}
		}
	}
	for e, n := range seen {
		if n > 1 {
			t.Fatalf("edge %v inserted by both connections", e)
		}
	}
}
