// Algfamily: a tour of the whole algorithm family on one graph —
// run all eight invariants sequentially and in parallel, check they
// agree with each other and with the sampling estimators, and show the
// paper's selection rule in action on graphs with opposite side
// ratios.
//
// Run with: go run ./examples/algfamily
package main

import (
	"fmt"
	"log"
	"time"

	"butterfly"
)

func main() {
	// The record-labels stand-in has |V1| ≫ |V2|: the paper's rule says
	// the column-partitioned family (invariants 1–4) should win.
	g, err := butterfly.GeneratePaperDataset("record-labels", 4)
	if err != nil {
		log.Fatal(err)
	}
	s := g.Stats()
	fmt.Printf("graph: %s\n", g)
	fmt.Printf("wedges to enumerate: family 1-4 → %d, family 5-8 → %d\n\n",
		s.WedgesV2, s.WedgesV1)

	fmt.Println("invariant   sequential   6 threads    count")
	var want int64
	for inv := butterfly.Invariant1; inv <= butterfly.Invariant8; inv++ {
		t0 := time.Now()
		seq, err := g.CountWith(butterfly.CountOptions{Invariant: inv})
		if err != nil {
			log.Fatal(err)
		}
		seqD := time.Since(t0)

		t0 = time.Now()
		par, err := g.CountWith(butterfly.CountOptions{Invariant: inv, Threads: 6})
		if err != nil {
			log.Fatal(err)
		}
		parD := time.Since(t0)

		if inv == butterfly.Invariant1 {
			want = seq
		}
		if seq != want || par != want {
			log.Fatalf("%v disagreed: %d / %d vs %d", inv, seq, par, want)
		}
		mark := " "
		if inv == butterfly.Invariant2 || inv == butterfly.Invariant3 ||
			inv == butterfly.Invariant6 || inv == butterfly.Invariant7 {
			mark = "*" // look-ahead member
		}
		fmt.Printf("%v%s       %8.3fs    %8.3fs    %d\n", inv, mark, seqD.Seconds(), parD.Seconds(), seq)
	}
	fmt.Println("(* = look-ahead member)")

	// Sampling estimators for scale-out scenarios.
	for _, strat := range []struct {
		name string
		s    butterfly.EstimateStrategy
	}{{"vertex sampling", butterfly.SampleVertices}, {"edge sampling", butterfly.SampleEdges}} {
		est, err := g.EstimateCount(butterfly.EstimateOptions{Strategy: strat.s, Samples: 2000, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (2000 samples): ≈%.0f (exact %d, error %.1f%%)\n",
			strat.name, est, want, 100*relErr(est, want))
	}

	// Full verification: all counters, including independent baselines.
	t0 := time.Now()
	if err := g.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nVerify(): 8 invariants + wedge-hash + vertex-priority + SpGEMM all agree (%.2fs)\n",
		time.Since(t0).Seconds())
}

func relErr(est float64, exact int64) float64 {
	if exact == 0 {
		return 0
	}
	d := est - float64(exact)
	if d < 0 {
		d = -d
	}
	return d / float64(exact)
}
