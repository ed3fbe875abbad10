package serve

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"

	"butterfly/serveapi"
)

// famInfo is what one metric family shows on a /metrics page: its
// TYPE, the label names of its series in rendering order (histogram
// `le` excluded), and how many HELP and TYPE lines name it.
type famInfo struct {
	kind         string
	labels       string
	helps, types int
}

// parseFamilies reads an exposition page into per-family facts. A
// sample line belongs to the family its name names, or — for the
// _bucket/_sum/_count series — to the histogram family it extends.
func parseFamilies(t *testing.T, text string) map[string]*famInfo {
	t.Helper()
	fams := map[string]*famInfo{}
	get := func(name string) *famInfo {
		f, ok := fams[name]
		if !ok {
			f = &famInfo{}
			fams[name] = f
		}
		return f
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			get(name).helps++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			f := get(name)
			f.types++
			f.kind = kind
			continue
		}
		name, labels, hasLabels := strings.Cut(line, "{")
		if !hasLabels {
			name, _, _ = strings.Cut(line, " ")
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && fams[base] != nil && fams[base].kind == "histogram" {
				name = base
			}
		}
		f, ok := fams[name]
		if !ok {
			t.Fatalf("sample before its TYPE line: %q", line)
		}
		var names []string
		if hasLabels {
			body, _, _ := strings.Cut(labels, "} ")
			for _, pair := range strings.Split(body, `",`) {
				n, _, _ := strings.Cut(pair, "=")
				if n != "le" {
					names = append(names, n)
				}
			}
		}
		got := strings.Join(names, ",")
		if f.labels != "" && f.labels != got {
			t.Fatalf("%s: series disagree on label names: %q vs %q", name, f.labels, got)
		}
		f.labels = got
	}
	return fams
}

// TestMetricsInventory pins the full /metrics inventory of a durable
// server with a configured tenant, an open ingest and a registered
// graph: every family keeps its name, TYPE and label names (in order),
// and each family has exactly one HELP and one TYPE line.
func TestMetricsInventory(t *testing.T) {
	st, _ := openStore(t, t.TempDir())
	s, c := newTestServer(t, Config{Store: st, Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"acme": {Weight: 2}},
	}})
	t.Cleanup(func() { s.Close(); st.Close() })
	ctx := context.Background()
	base := urlOf(t, c)

	registerK44(t, c)
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "st", M: 4, N: 4, Reservoir: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestAppend(ctx, "st", completeEdges(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(ctx, "st", serveapi.EstimateRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, _ := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
		map[string]string{serveapi.TenantHeader: "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count: %d", resp.StatusCode)
	}
	rawDo(t, "GET", base+"/graphs/k44", "") // one legacy request

	_, body := rawDo(t, "GET", base+"/metrics", "")
	fams := parseFamilies(t, string(body))
	var got []string
	for name, f := range fams {
		if f.helps != 1 || f.types != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines, want 1 each", name, f.helps, f.types)
		}
		got = append(got, fmt.Sprintf("%s %s {%s}", name, f.kind, f.labels))
	}
	sort.Strings(got)
	if !slices.Equal(got, metricsInventory) {
		t.Errorf("/metrics inventory changed:\n got %q\nwant %q", got, metricsInventory)
	}
}

// metricsInventory is every family TestMetricsInventory's server
// renders, as "name TYPE {label names}". Scrapers (the benchmark,
// bfload, the QoS smoke script, CI) depend on these.
var metricsInventory = []string{
	"bfserved_cache_entries gauge {}",
	"bfserved_cache_hit_ratio gauge {}",
	"bfserved_cache_hits_total counter {}",
	"bfserved_cache_misses_total counter {}",
	"bfserved_checkpoint_errors_total counter {}",
	"bfserved_checkpoints_total counter {}",
	"bfserved_coalesced_total counter {}",
	"bfserved_estimates_total counter {kind}",
	"bfserved_graph_butterflies gauge {graph}",
	"bfserved_graph_edges gauge {graph}",
	"bfserved_graph_version gauge {graph}",
	"bfserved_in_flight gauge {}",
	"bfserved_ingest_edges_seen gauge {graph}",
	"bfserved_ingest_edges_total counter {}",
	"bfserved_legacy_requests_total counter {route}",
	"bfserved_open_ingests gauge {}",
	"bfserved_queue_depth gauge {}",
	"bfserved_requests_total counter {route,code}",
	"bfserved_response_bytes histogram {}",
	"bfserved_route_seconds histogram {route,api}",
	"bfserved_shed_total counter {}",
	"bfserved_slow_queries_total counter {}",
	"bfserved_stage_seconds histogram {stage}",
	"bfserved_tenant_admitted_total counter {tenant}",
	"bfserved_tenant_evicted_total counter {tenant}",
	"bfserved_tenant_queue_depth gauge {tenant}",
	"bfserved_tenant_seconds histogram {tenant}",
	"bfserved_tenant_shed_total counter {tenant,reason}",
	"bfserved_tenant_slo_burn gauge {tenant}",
	"bfserved_tenant_weight gauge {tenant}",
	"bfserved_wal_bytes gauge {}",
	"bfserved_wal_fsyncs_total counter {}",
}

// TestMetricsLabelEscaping: a graph name may hold any bytes but an
// empty string; its label value renders with only the text format's
// escapes (\\, \", \n), so a tab and U+200B pass through verbatim.
func TestMetricsLabelEscaping(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	for _, name := range []string{"a\tb", "zero\u200bwidth", `q"b\s`} {
		if _, err := c.Register(ctx, serveapi.RegisterRequest{
			Name: name, M: 2, N: 2, Edges: completeEdges(2, 2),
		}); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bfserved_graph_version{graph=\"a\tb\"} 1\n",
		"bfserved_graph_version{graph=\"zero\u200bwidth\"} 1\n",
		`bfserved_graph_version{graph="q\"b\\s"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing line %q", want)
		}
	}
}
