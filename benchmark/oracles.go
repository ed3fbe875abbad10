package main

// Correctness oracles for the scale-1 library workloads, pinned from
// the commit that introduced the benchmark. Every count, at every
// thread setting and on every fresh view, must equal these; a change
// that moves one has changed an answer, not a speed.

// paperCounts are the exact butterfly counts of the Fig 9 stand-ins
// at scale 1 (their generators' fixed seeds make them reproducible).
var paperCounts = map[string]int64{
	"arxiv-cond-mat": 129789,
	"producers":      106112,
	"record-labels":  373311,
	"occupations":    823828,
	"github":         13869589,
}

// peelChecksums are FNV-1a checksums of the V1 tip numbers ("tip:")
// and of the wing numbers in row-major edge order ("wing:") at scale 1.
var peelChecksums = map[string]uint64{
	"tip:arxiv-cond-mat":  0x0c77d9f6651ae3f5,
	"wing:arxiv-cond-mat": 0x158dc3c9d11902c2,
	"tip:producers":       0x07ebc38370b4f080,
	"wing:producers":      0x9db9ab94f820d14f,
	"tip:record-labels":   0x9b305eda138cb235,
	"wing:record-labels":  0xf7f387f964200620,
	"tip:occupations":     0xe1e993ae589a1cd8,
	"wing:occupations":    0xee19ad70c9390454,
	"tip:github":          0xcc0c28726d74b70e,
	"wing:github":         0x765cdddfa5e33739,
}
