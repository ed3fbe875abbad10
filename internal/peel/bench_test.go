package peel

import (
	"fmt"
	"runtime"
	"testing"

	"butterfly/internal/gen"
)

// benchRounds keeps the benchmarked call's result live.
var benchRounds int

// BenchmarkWingDecompositionDelta runs the delta engine's wing
// decomposition of the github stand-in at scale 50, sequential and on
// every CPU, so the wing kernel can be profiled on its own:
//
//	go test -run '^$' -bench WingDecompositionDelta -cpuprofile cpu.out ./internal/peel
func BenchmarkWingDecompositionDelta(b *testing.B) {
	g, err := gen.ScaledPaperDataset("github", 50)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, benchRounds = wingDecompositionDelta(g, threads, nil)
			}
		})
	}
}
