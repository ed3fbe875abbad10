package peel

import (
	"fmt"
	"runtime"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/gen"
)

// benchRounds keeps the benchmarked call's result live.
var benchRounds int

// BenchmarkTipDecompositionDelta runs the delta engine's V1 tip
// decomposition of the github stand-in at scale 1, sequential and on
// every CPU. Its supports span millions of levels, so the bucket
// queue's share shows up next to the tip kernel's in a profile:
//
//	go test -run '^$' -bench TipDecompositionDelta -cpuprofile cpu.out ./internal/peel
func BenchmarkTipDecompositionDelta(b *testing.B) {
	g, err := gen.ScaledPaperDataset("github", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, benchRounds = deltaLevels(tips(g, core.SideV1, threads), nil)
			}
		})
	}
}

// BenchmarkWingDecompositionDelta runs the delta engine's wing
// decomposition of each of the five stand-ins at scale 1, sequential
// and on every CPU, so the bloom index build and its rounds can be
// profiled on their own. Each result also reports the stand-in's index
// size — blooms, wedges and bytes — from one build outside the timed
// loop:
//
//	go test -run '^$' -bench WingDecompositionDelta -cpuprofile cpu.out ./internal/peel
func BenchmarkWingDecompositionDelta(b *testing.B) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		x := core.NewBloomIndex(g, 1, nil)
		blooms, wedges, bytes := float64(x.Blooms()), float64(x.Wedges()), float64(x.Bytes())
		for _, threads := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, benchRounds = deltaLevels(wings(g, threads), nil)
				}
				b.ReportMetric(blooms, "blooms")
				b.ReportMetric(wedges, "wedges")
				b.ReportMetric(bytes, "index-B")
			})
		}
	}
}

// BenchmarkVertexSeed times the per-vertex seed of a V1 tip
// decomposition — core.VertexButterfliesMaskedInto with a warm arena —
// on record-labels (whose cheaper sweep walks V2's rows) and github at
// scale 1, sequential and on every CPU:
//
//	go test -run '^$' -bench VertexSeed ./internal/peel
func BenchmarkVertexSeed(b *testing.B) {
	for _, name := range []string{"record-labels", "github"} {
		g, err := gen.ScaledPaperDataset(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		s := make([]int64, g.NumV1())
		arena := core.NewArena()
		for _, threads := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.VertexButterfliesMaskedInto(s, g, core.SideV1, nil, threads, arena)
				}
			})
		}
	}
}
