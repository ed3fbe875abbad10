// Command bfpeel extracts k-tip and k-wing subgraphs and full tip/wing
// decompositions from a bipartite graph (Section IV of the paper).
//
// Modes:
//
//	tip           the k-tip subgraph for -k and -side
//	wing          the k-wing subgraph for -k
//	tip-numbers   every vertex's tip number (histogram to stdout)
//	wing-numbers  every edge's wing number (histogram to stdout)
//
// Engines (-engine): "delta" (default) is the incremental wedge-delta
// peeling engine; "recount" is the round-synchronous engine that
// recomputes all supports every round. Both produce identical results
// at every -threads value (default 1; capped at GOMAXPROCS). In tip
// mode, -lookahead runs the Fig 8 look-ahead k-tip algorithm instead,
// sequentially. densest mode always runs its own sequential greedy peel.
//
// Examples:
//
//	bfpeel -dataset arxiv-cond-mat -scale 10 -mode tip -k 5
//	bfpeel -file out.github -mode wing -k 10 -out out.github-10wing
//	bfpeel -dataset producers -scale 20 -mode tip-numbers -engine delta -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"butterfly"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfpeel:", err)
		os.Exit(1)
	}
}

// jsonResult is the -json output: one object on stdout describing what
// was peeled, on which engine, in how many rounds, and how long it
// took. Subgraph modes fill the Remaining/Peeled pair; numbers modes
// fill Items/MaxNumber.
type jsonResult struct {
	Mode      string `json:"mode"`
	K         int64  `json:"k,omitempty"`
	Side      string `json:"side,omitempty"`
	Engine    string `json:"engine"`
	Rounds    int    `json:"rounds"`
	ElapsedMS int64  `json:"elapsed_ms"`

	EdgesRemaining int64 `json:"edges_remaining,omitempty"`
	EdgesPeeled    int64 `json:"edges_peeled,omitempty"`

	Items     int   `json:"items,omitempty"`      // vertices (tip) or edges (wing) decomposed
	MaxNumber int64 `json:"max_number,omitempty"` // largest tip/wing number
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfpeel", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		file    = fs.String("file", "", "KONECT-format input file")
		mm      = fs.String("mm", "", "MatrixMarket input file")
		dataset = fs.String("dataset", "", "paper dataset stand-in name")
		scale   = fs.Int("scale", 1, "shrink factor for -dataset")
		mode    = fs.String("mode", "tip", "tip|wing|tip-numbers|wing-numbers|densest")
		k       = fs.Int64("k", 1, "peeling threshold")
		side    = fs.String("side", "v1", "vertex side for tip modes: v1|v2")
		ahead   = fs.Bool("lookahead", false, "use the Fig 8 look-ahead k-tip algorithm")
		threads = fs.Int("threads", 1, "peeling engine workers (capped at GOMAXPROCS)")
		engine  = fs.String("engine", "delta", "peeling engine: delta|recount")
		jsonOut = fs.Bool("json", false, "emit one JSON result object instead of text")
		outPath = fs.String("out", "", "write resulting subgraph (tip/wing modes) to this KONECT file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng, err := butterfly.ParsePeelEngine(*engine)
	if err != nil {
		return fmt.Errorf("unknown -engine %q (want delta|recount)", *engine)
	}
	opts := butterfly.PeelOptions{Engine: eng, Threads: *threads}

	g, err := loadGraph(*file, *mm, *dataset, *scale)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintln(out, "input:", g)
	}

	sd, err := butterfly.ParseSide(*side)
	if err != nil {
		return fmt.Errorf("unknown -side %q", *side)
	}

	res := jsonResult{Mode: *mode, Engine: eng.String()}
	emit := func() error {
		if !*jsonOut {
			return nil
		}
		enc := json.NewEncoder(out)
		return enc.Encode(res)
	}

	start := time.Now()
	switch *mode {
	case "tip":
		var h *butterfly.Graph
		var st butterfly.PeelStats
		if *ahead {
			h, err = g.KTipLookAhead(*k, sd)
		} else {
			h, st, err = g.KTipWith(*k, sd, opts)
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			res.K, res.Side, res.Rounds = *k, *side, st.Rounds
			res.EdgesRemaining = h.NumEdges()
			res.EdgesPeeled = g.NumEdges() - h.NumEdges()
			res.ElapsedMS = time.Since(start).Milliseconds()
			if err := emit(); err != nil {
				return err
			}
			return writeSub(out, h, *outPath, *jsonOut)
		}
		return report(out, h, *outPath, fmt.Sprintf("%d-tip (%s side)", *k, sd), start)
	case "wing":
		h, st, err := g.KWingWith(*k, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			res.K, res.Rounds = *k, st.Rounds
			res.EdgesRemaining = h.NumEdges()
			res.EdgesPeeled = g.NumEdges() - h.NumEdges()
			res.ElapsedMS = time.Since(start).Milliseconds()
			if err := emit(); err != nil {
				return err
			}
			return writeSub(out, h, *outPath, *jsonOut)
		}
		return report(out, h, *outPath, fmt.Sprintf("%d-wing", *k), start)
	case "tip-numbers":
		tn, st, err := g.TipNumbersWith(sd, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			res.Side, res.Rounds = *side, st.Rounds
			res.Items = len(tn)
			res.MaxNumber = maxOf(tn)
			res.ElapsedMS = time.Since(start).Milliseconds()
			return emit()
		}
		fmt.Fprintf(out, "tip numbers (%s side) in %.3fs:\n", sd, time.Since(start).Seconds())
		histogram(out, tn)
		return nil
	case "wing-numbers":
		wn, st := g.WingNumbersWith(opts)
		vals := make([]int64, len(wn))
		for i, w := range wn {
			vals[i] = w.Count
		}
		if *jsonOut {
			res.Rounds = st.Rounds
			res.Items = len(vals)
			res.MaxNumber = maxOf(vals)
			res.ElapsedMS = time.Since(start).Milliseconds()
			return emit()
		}
		fmt.Fprintf(out, "wing numbers in %.3fs:\n", time.Since(start).Seconds())
		histogram(out, vals)
		return nil
	case "densest":
		res, err := g.DensestByButterflies(sd)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "densest-by-butterflies (%s side): %d vertices, %d butterflies, density %.2f (%.3fs)\n",
			sd, res.Vertices, res.Butterflies, res.Density, time.Since(start).Seconds())
		if *outPath != "" {
			var h *butterfly.Graph
			if sd == butterfly.V1 {
				h, err = g.InducedSubgraph(res.Keep, nil)
			} else {
				h, err = g.InducedSubgraph(nil, res.Keep)
			}
			if err != nil {
				return err
			}
			if err := h.WriteKONECTFile(*outPath); err != nil {
				return err
			}
			fmt.Fprintln(out, "wrote", *outPath)
		}
		return nil
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
}

func maxOf(vals []int64) int64 {
	var m int64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// writeSub writes the subgraph if requested; in JSON mode the
// confirmation line is suppressed so stdout stays one JSON object.
func writeSub(out io.Writer, h *butterfly.Graph, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	if err := h.WriteKONECTFile(path); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintln(out, "wrote", path)
	}
	return nil
}

func report(out io.Writer, h *butterfly.Graph, path, label string, start time.Time) error {
	fmt.Fprintf(out, "%s: %s (%.3fs)\n", label, h, time.Since(start).Seconds())
	if path != "" {
		if err := h.WriteKONECTFile(path); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
	}
	return nil
}

// histogram prints "value: count" lines for the distinct values,
// ascending, capped at 25 buckets with the tail summarized.
func histogram(out io.Writer, vals []int64) {
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v]++
	}
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	shown := keys
	if len(shown) > 25 {
		shown = shown[:25]
	}
	for _, k := range shown {
		fmt.Fprintf(out, "  %8d: %d\n", k, counts[k])
	}
	if len(keys) > len(shown) {
		fmt.Fprintf(out, "  … %d more distinct values up to %d\n", len(keys)-len(shown), keys[len(keys)-1])
	}
}

func loadGraph(file, mm, dataset string, scale int) (*butterfly.Graph, error) {
	set := 0
	for _, s := range []string{file, mm, dataset} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("need exactly one of -file, -mm, -dataset")
	}
	switch {
	case file != "":
		return butterfly.ReadKONECTFile(file)
	case mm != "":
		return butterfly.ReadMatrixMarketFile(mm)
	default:
		return butterfly.GeneratePaperDataset(dataset, scale)
	}
}
