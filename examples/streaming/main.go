// Streaming: maintain an exact butterfly count over an evolving
// user–tag graph with DynamicCounter — no recounting as edges arrive
// and expire.
//
// A sliding window of tagging events flows through the counter:
// arrivals insert edges, expirations delete them, and after every
// batch the butterfly count (the graph's "co-tagging cohesion") is
// available in O(1). A periodic audit recounts from scratch with the
// static family and asserts exact agreement.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"

	"butterfly"
)

const (
	users   = 800
	tags    = 400
	window  = 4000 // edges kept live
	batches = 12
	batch   = 1000
)

type event struct{ u, v int }

func main() {
	counter, err := butterfly.NewDynamicCounter(users, tags)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var live []event

	fmt.Println("batch  edges   butterflies  created  expired-destroyed")
	for b := 0; b < batches; b++ {
		var created, destroyed int64

		// Arrivals: hub-biased tagging events.
		for i := 0; i < batch; i++ {
			e := event{
				u: int(float64(users) * rng.Float64() * rng.Float64()), // mild skew
				v: rng.Intn(tags),
			}
			added, delta, err := counter.InsertEdge(e.u, e.v)
			if err != nil {
				log.Fatal(err)
			}
			if added {
				live = append(live, e)
				created += delta
			}
		}

		// Expirations: oldest events fall out of the window.
		for len(live) > window {
			e := live[0]
			live = live[1:]
			removed, delta, err := counter.DeleteEdge(e.u, e.v)
			if err != nil {
				log.Fatal(err)
			}
			if removed {
				destroyed += delta
			}
		}

		fmt.Printf("%5d  %5d  %11d  %7d  %17d\n",
			b, counter.NumEdges(), counter.Count(), created, destroyed)
	}

	// Audit: the static family recounts the final window from scratch.
	snapshot := counter.Snapshot()
	static, err := snapshot.CountWith(butterfly.CountOptions{Threads: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naudit: dynamic=%d static=%d ", counter.Count(), static)
	if counter.Count() != static {
		log.Fatal("MISMATCH — dynamic maintenance diverged")
	}
	fmt.Println("(exact agreement)")

	// The snapshot is a full Graph: everything else composes.
	if core3, err := snapshot.KWing(3); err == nil {
		fmt.Printf("3-wing of the live window: %s\n", core3)
	}

	// When even the window cannot be stored, the O(reservoir)-memory
	// estimator tracks the same quantity approximately: replay the
	// final window as a stream into a half-size reservoir (the p₄ scaling makes much smaller reservoirs high-variance on windows this small).
	est, err := butterfly.NewStreamEstimator(users, tags, window/2, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range snapshot.Edges() {
		if err := est.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reservoir estimate (%d of %d edges kept): ≈%.0f vs exact %d\n",
		window/2, est.Seen(), est.Estimate(), counter.Count())
}
