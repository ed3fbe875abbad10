package butterfly

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := randGraph(t, 11, 15, 20, 0.3)
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) || back.Count() != g.Count() {
		t.Fatal("MatrixMarket round trip changed the graph")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMatrixMarketFileRoundTrip(t *testing.T) {
	g := k22(t)
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := g.WriteMatrixMarketFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("file round trip differs")
	}
	if _, err := ReadMatrixMarketFile("/no/such/file.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCrossFormatConsistency(t *testing.T) {
	// The same graph through both formats parses identically.
	g := randGraph(t, 12, 10, 10, 0.4)
	var km, mm bytes.Buffer
	if err := g.WriteKONECT(&km); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteMatrixMarket(&mm); err != nil {
		t.Fatal(err)
	}
	a, err := ReadKONECT(&km)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&mm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != b.Count() || a.NumEdges() != b.NumEdges() {
		t.Fatal("formats disagree")
	}
}

func TestComponentsAPI(t *testing.T) {
	g, err := FromEdges(4, 4, [][2]int{{0, 0}, {1, 0}, {2, 2}, {2, 3}, {3, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2, n := g.Components()
	if len(c1) != 4 || len(c2) != 4 {
		t.Fatal("component slice lengths wrong")
	}
	if n != 3 { // {u0,u1,v0}, {u2,u3,v2,v3}, isolated v1
		t.Fatalf("components = %d, want 3", n)
	}
	if c1[0] != c1[1] || c1[2] != c1[3] || c1[0] == c1[2] {
		t.Fatal("component labels wrong")
	}

	lc := g.LargestComponent()
	if lc.NumEdges() != 4 {
		t.Fatalf("largest component edges = %d, want 4", lc.NumEdges())
	}
	if lc.Count() != 1 {
		t.Fatalf("largest component butterflies = %d, want 1", lc.Count())
	}
}

func TestDynamicCounterAPI(t *testing.T) {
	d, err := NewDynamicCounter(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDynamicCounter(-1, 2); err == nil {
		t.Fatal("negative size accepted")
	}

	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		added, created, err := d.InsertEdge(e[0], e[1])
		if err != nil || !added || created != 0 {
			t.Fatalf("insert %v: %v %d %v", e, added, created, err)
		}
	}
	added, created, err := d.InsertEdge(1, 1)
	if err != nil || !added || created != 1 {
		t.Fatalf("closing insert: %v %d %v", added, created, err)
	}
	if d.Count() != 1 || d.NumEdges() != 4 {
		t.Fatalf("state: count=%d edges=%d", d.Count(), d.NumEdges())
	}
	if !d.HasEdge(1, 1) || d.HasEdge(5, 5) {
		t.Fatal("HasEdge wrong")
	}

	removed, destroyed, err := d.DeleteEdge(0, 0)
	if err != nil || !removed || destroyed != 1 || d.Count() != 0 {
		t.Fatalf("delete: %v %d %v count=%d", removed, destroyed, err, d.Count())
	}

	if _, _, err := d.InsertEdge(9, 0); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if _, _, err := d.DeleteEdge(0, 9); err == nil {
		t.Fatal("out-of-range delete accepted")
	}

	snap := d.Snapshot()
	if snap.NumEdges() != 3 || snap.Count() != 0 {
		t.Fatal("snapshot wrong")
	}
}

func TestDynamicCounterTracksStatic(t *testing.T) {
	g := randGraph(t, 13, 30, 25, 0.2)
	d := NewDynamicCounterFromGraph(g)
	if d.Count() != g.Count() {
		t.Fatalf("seeded count %d, static %d", d.Count(), g.Count())
	}
	// Remove some edges and cross-check against a static recount.
	edges := g.Edges()
	for i := 0; i < len(edges)/2; i++ {
		if _, _, err := d.DeleteEdge(edges[i][0], edges[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	if d.Count() != d.Snapshot().Count() {
		t.Fatalf("dynamic %d, static recount %d", d.Count(), d.Snapshot().Count())
	}
}

func TestEstimateSparsifyAPI(t *testing.T) {
	g, err := GenerateComplete(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	est, err := g.EstimateCount(EstimateOptions{Strategy: SampleSparsify, P: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est != float64(g.Count()) {
		t.Fatalf("P=1 sparsify: %f, want %d", est, g.Count())
	}
	if _, err := g.EstimateCount(EstimateOptions{Strategy: SampleSparsify, P: 0}); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := g.EstimateCount(EstimateOptions{Strategy: SampleSparsify, P: 1.5}); err == nil {
		t.Fatal("P>1 accepted")
	}
}

func TestCountWithAlgorithms(t *testing.T) {
	g := randGraph(t, 31, 50, 40, 0.2)
	want := g.Count()
	for _, alg := range []Algorithm{AlgorithmFamily, AlgorithmWedgeHash,
		AlgorithmVertexPriority, AlgorithmSortAggregate, AlgorithmSpGEMM} {
		for _, threads := range []int{0, 3} {
			got, err := g.CountWith(CountOptions{Algorithm: alg, Threads: threads})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if got != want {
				t.Errorf("%v threads=%d: %d, want %d", alg, threads, got, want)
			}
		}
	}
	// Relabeling composes with every algorithm.
	got, err := shuffled(t, g, 3).CountWith(CountOptions{Algorithm: AlgorithmSortAggregate})
	if err != nil || got != want {
		t.Fatalf("relabeled sort-aggregate: %d, %v", got, err)
	}
	// Negative threads means GOMAXPROCS.
	got, err = g.CountWith(CountOptions{Algorithm: AlgorithmSpGEMM, Threads: -1})
	if err != nil || got != want {
		t.Fatalf("spgemm GOMAXPROCS: %d, %v", got, err)
	}
}

func TestCountWithAlgorithmErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.CountWith(CountOptions{Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("invalid algorithm accepted")
	}
	if _, err := g.CountWith(CountOptions{Algorithm: AlgorithmWedgeHash, Invariant: Invariant3}); err == nil {
		t.Fatal("invariant with non-family algorithm accepted")
	}
	if AlgorithmFamily.String() != "family" || AlgorithmSpGEMM.String() != "spgemm" ||
		Algorithm(9).String() != "Algorithm(9)" {
		t.Fatal("Algorithm.String wrong")
	}
}

func TestWingRoundsAndParallelAPI(t *testing.T) {
	g := randGraph(t, 32, 25, 20, 0.3)
	want := g.WingNumbers()
	got, _ := g.WingNumbersWith(PeelOptions{Threads: 3})
	if len(got) != len(want) {
		t.Fatal("length mismatch")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: rounds %+v, heap %+v", i, got[i], want[i])
		}
	}
	gotAuto, _ := g.WingNumbersWith(PeelOptions{})
	for i := range want {
		if gotAuto[i] != want[i] {
			t.Fatal("GOMAXPROCS rounds differ")
		}
	}

	for _, k := range []int64{0, 1, 2} {
		seqW, err := g.KWing(k)
		if err != nil {
			t.Fatal(err)
		}
		parW, _, err := g.KWingWith(k, PeelOptions{Threads: 3})
		if err != nil || !parW.Equal(seqW) {
			t.Fatalf("k=%d: parallel k-wing differs (%v)", k, err)
		}
	}
	if _, _, err := g.KWingWith(-1, PeelOptions{Threads: 2}); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestPreferentialAttachmentAndDegreeStats(t *testing.T) {
	g, err := GeneratePreferentialAttachment(200, 150, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	hist, err := g.DegreeHistogram(V1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != 200 {
		t.Fatalf("histogram covers %d vertices, want 200", total)
	}
	gini, err := g.DegreeGini(V1)
	if err != nil {
		t.Fatal(err)
	}
	if gini <= 0 || gini >= 1 {
		t.Fatalf("preferential attachment Gini = %f, want in (0,1)", gini)
	}
	// Uniform graph has lower skew than preferential attachment.
	uni, err := GenerateGnm(200, 150, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if uniGini, _ := uni.DegreeGini(V1); gini <= uniGini {
		t.Fatalf("PA Gini %f not above Gnm Gini %f", gini, uniGini)
	}
	// An invalid side is an error, not an answer for V2.
	if _, err := g.DegreeHistogram(Side(9)); err == nil {
		t.Fatal("DegreeHistogram accepted Side(9)")
	}
	if _, err := g.DegreeGini(Side(9)); err == nil {
		t.Fatal("DegreeGini accepted Side(9)")
	}

	if _, err := GeneratePreferentialAttachment(0, 5, 1, 1); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := GeneratePreferentialAttachment(5, 5, -1, 1); err == nil {
		t.Fatal("negative edges accepted")
	}
}

func TestWriteDOTAPI(t *testing.T) {
	var sb strings.Builder
	if err := k22(t).WriteDOT(&sb, "k22"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "u0 -- v0;") {
		t.Fatalf("DOT output: %q", sb.String())
	}
}

func TestStreamEstimatorAPI(t *testing.T) {
	g, err := GenerateComplete(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewStreamEstimator(4, 4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if err := est.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if est.Seen() != 16 {
		t.Fatalf("Seen = %d", est.Seen())
	}
	if got := est.Estimate(); got != 36 {
		t.Fatalf("exact-regime estimate %f, want 36", got)
	}
	if err := est.Add(9, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewStreamEstimator(-1, 2, 10, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewStreamEstimator(2, 2, 3, 1); err == nil {
		t.Fatal("tiny reservoir accepted")
	}
}

func TestStreamEstimatorSubsampled(t *testing.T) {
	g, err := GeneratePowerLaw(150, 120, 1500, 0.7, 0.7, 6)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(g.Count())
	var sum float64
	const trials = 30
	for seed := int64(0); seed < trials; seed++ {
		est, err := NewStreamEstimator(150, 120, 600, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if err := est.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		sum += est.Estimate()
	}
	mean := sum / trials
	if exact > 0 && (mean < exact/2 || mean > exact*2) {
		t.Fatalf("mean estimate %.0f far from exact %.0f", mean, exact)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	src := randGraph(t, 81, 12, 9, 0.3)
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(src) || back.Count() != src.Count() {
		t.Fatal("JSON round trip changed the graph")
	}
	// Isolated trailing vertices survive (unlike KONECT).
	iso, err := FromEdges(5, 5, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	data, _ = json.Marshal(iso)
	var back2 Graph
	if err := json.Unmarshal(data, &back2); err != nil {
		t.Fatal(err)
	}
	if back2.NumV1() != 5 || back2.NumV2() != 5 {
		t.Fatal("sizes lost in JSON round trip")
	}

	var bad Graph
	if err := json.Unmarshal([]byte(`{"v1":1,"v2":1,"edges":[[5,5]]}`), &bad); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &bad); err == nil {
		t.Fatal("garbage accepted")
	}
}
