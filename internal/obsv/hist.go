package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the default request-latency bucket upper bounds
// in seconds: half-decade spacing from 0.5 ms to 10 s, bracketing
// everything from a cache hit to a full-size parallel count.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}

// SizeBuckets are the default response-size bucket upper bounds in
// bytes (powers of four from 256 B to 16 MiB, the server's body cap).
var SizeBuckets = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// Histogram is a fixed-bucket histogram: atomics only, no locks, no
// allocation per observation. Values equal to a bucket's upper bound
// land in that bucket (Prometheus `le` semantics); values above every
// bound land in the implicit +Inf bucket.
type Histogram struct {
	buckets []float64       // ascending upper bounds; +Inf implicit
	counts  []atomic.Uint64 // len(buckets)+1
	sumBits atomic.Uint64   // float64 bits, CAS-updated
	count   atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. The bounds slice is not copied; do not mutate it.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obsv: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: histogram buckets not ascending: %v", buckets))
		}
	}
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bound ≥ v → its bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (aligned with buckets,
// then +Inf), the sum, and the total count. Prometheus scrapes
// tolerate per-series skew, so no global lock is taken.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return cum, h.Sum(), h.count.Load()
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// family is one named metric family: a set of label-distinguished
// series sharing a name, help string and kind.
type family struct {
	name    string
	help    string
	kind    string // "counter" | "histogram" | "gauge"
	labels  []string
	buckets []float64 // histograms only
	// read, when set, makes this a scrape-time family: it reports the
	// series (label values, rendered value) instead of the series map.
	read func(emit func(vals []string, val string))

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	labelVals []string
	c         *Counter
	h         *Histogram
}

// with returns (creating on first use) the series for the given label
// values.
func (f *family) with(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obsv: %s expects %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), vals...)}
		if f.kind == "counter" {
			s.c = &Counter{}
		} else {
			s.h = NewHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// sorted returns the series sorted by label values, for deterministic
// exposition.
func (f *family) sorted() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(vals ...string) *Counter { return v.f.with(vals).c }

// HistogramVec is a family of histograms distinguished by label
// values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(vals ...string) *Histogram { return v.f.with(vals).h }

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Families render sorted by
// name; series within a family sort by label values.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.fams {
		if have.name == f.name {
			panic("obsv: duplicate metric family " + f.name)
		}
	}
	r.fams = append(r.fams, f)
}

// Counter registers a counter family. With no labels the single
// series is created eagerly so it renders as 0 before first use.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: "counter", labels: labels, series: make(map[string]*series)}
	r.add(f)
	v := &CounterVec{f: f}
	if len(labels) == 0 {
		v.With()
	}
	return v
}

// Histogram registers a histogram family over the given buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: "histogram", labels: labels, buckets: buckets, series: make(map[string]*series)}
	r.add(f)
	v := &HistogramVec{f: f}
	if len(labels) == 0 {
		v.With()
	}
	return v
}

// labelEscaper applies the text format's label-value escapes: only
// backslash, double quote and newline; every other byte passes through.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {l1="v1",l2="v2"} (empty for no labels); extra
// appends one more pair (the histogram `le` label).
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, vals[i])
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName + `="` + extraVal + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Value is the type of a scrape-time series. Integers render as exact
// decimals, float64 as %g.
type Value interface {
	int | int64 | uint64 | float64
}

// Func registers a scrape-time family of the given kind ("gauge" or
// "counter"): its series are not stored here but read from state
// another component already owns. WriteProm calls read once per scrape;
// read calls emit once per series, in the order the series should
// render. A family whose read emits nothing renders nothing, not even
// its HELP and TYPE lines, which is how a family appears conditionally.
func Func[T Value](r *Registry, name, help, kind string, labels []string, read func(emit func(v T, labelVals ...string))) {
	r.add(&family{name: name, help: help, kind: kind, labels: labels,
		read: func(emit func(vals []string, val string)) {
			read(func(v T, vals ...string) {
				if len(vals) != len(labels) {
					panic(fmt.Sprintf("obsv: %s expects %d label values, got %d", name, len(labels), len(vals)))
				}
				emit(vals, fmt.Sprint(v))
			})
		}})
}

// WriteProm renders every family in the Prometheus text format.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.read != nil {
			var b strings.Builder
			f.read(func(vals []string, val string) {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, vals, "", ""), val)
			})
			if b.Len() > 0 {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.kind, b.String())
			}
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sorted() {
			switch f.kind {
			case "counter":
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.c.Value())
			case "histogram":
				cum, sum, count := s.h.snapshot()
				for i, ub := range f.buckets {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", fmt.Sprintf("%g", ub)), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(w, "%s_sum%s %g\n", f.name, labelString(f.labels, s.labelVals, "", ""), sum)
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), count)
			}
		}
	}
}
