// Command bfserved is the butterfly query daemon: a JSON-over-HTTP
// service over a registry of named bipartite graphs, with exact
// counts (the whole algorithm family), per-vertex and per-edge
// counts, sampling estimators, k-tip/k-wing peeling, and batch edge
// mutations applied through the dynamic counter with copy-on-write
// versioned snapshots.
//
// The approximate tier: POST /v1/ingest opens a graph in the loading
// state and streams NDJSON edge batches through a fixed-memory
// reservoir estimator (-reservoir sets the default capacity), so
// /v1/estimate answers with error bars while the graph loads; sealing
// promotes it to a normal exact-countable graph. Registered graphs
// answer /v1/estimate by adaptive sampling, and an overloaded
// /v1/count?degrade=estimate degrades to an estimate instead of a 429.
//
// Production machinery: per-request deadlines threaded into the
// counting loops, a concurrency limiter with a bounded queue (429
// load-shedding), an LRU result cache keyed by (graph, version,
// query), /healthz and Prometheus-format /metrics, and graceful
// shutdown that drains in-flight work on SIGINT/SIGTERM.
//
// With -data-dir the registry is durable: every register/mutate/drop
// is appended to a checksummed write-ahead log before it is published
// (group-committed fsyncs under -fsync always), graphs are
// checkpointed into CRC32C-checksummed snapshots when the WAL
// outgrows -checkpoint-bytes (or on POST /admin/checkpoint), and a
// restart — graceful or kill -9 — recovers every graph to the exact
// (version, count) it last acked.
//
// Multi-node mode: `-role=shard` daemons hold the graphs while a
// stateless `-role=router` places graphs on shards with a
// consistent-hash ring, proxies the /v1 surface, and merges per-shard
// wedge partials into exact cross-shard butterfly counts (graphs
// registered with "partitions": P split across shards). See
// docs/CLUSTER.md.
//
// Examples:
//
//	bfserved -addr :8080 -preload occupations@10
//	bfserved -addr :8080 -role=router -shards http://10.0.0.1:9001,http://10.0.0.2:9001
//	bfserved -addr :8080 -data-dir /var/lib/bfserved -fsync always
//	bfserved -addr :8080 -max-inflight 8 -queue 32 -timeout 10s
//	curl -s localhost:8080/graphs/occupations/count -d '{"threads": -1}'
//
// See docs/SERVING.md for the API reference and tuning guide.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"butterfly"
	"butterfly/internal/serve"
	"butterfly/internal/store"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "bfserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. If ready is
// non-nil it receives the bound address once the listener is up
// (tests bind :0 and need the port).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("bfserved", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "max queued requests before shedding 429s (0 = 4x max-inflight, -1 = no queue)")
		cacheSize   = fs.Int("cache", 1024, "result cache entries (0 disables)")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeout_ms")
		drainWait   = fs.Duration("drain", 30*time.Second, "max wait for in-flight requests on shutdown")
		preload     = fs.String("preload", "", "comma-separated synthetic datasets to register at startup, each name[@scale]")
		pathLoad    = fs.Bool("allow-path-load", false, "allow registering graphs from server-side file paths")
		dataDir     = fs.String("data-dir", "", "durable storage directory (empty = in-memory only; see docs/SERVING.md \"Durability\")")
		fsyncMode   = fs.String("fsync", "always", "WAL flush policy: always|interval|never (needs -data-dir)")
		fsyncEvery  = fs.Duration("fsync-interval", 100*time.Millisecond, "background flush period for -fsync interval")
		ckptBytes   = fs.Int64("checkpoint-bytes", 64<<20, "WAL size that triggers a background checkpoint (-1 disables; needs -data-dir)")
		reservoir   = fs.Int("reservoir", 0, "default reservoir capacity for /v1/ingest streams (0 = 65536 edges)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowMS      = fs.Int("slow-query-ms", -1, "log requests at or above this many ms as JSON lines (0 logs every request, -1 disables)")
		slowLog     = fs.String("slow-query-log", "", "slow-query log file (empty = stderr; needs -slow-query-ms >= 0)")
		role        = fs.String("role", "single", "cluster role: single|shard|router (see docs/CLUSTER.md)")
		shards      = fs.String("shards", "", "router only: comma-separated shard base URLs (http://host:port)")
		replicas    = fs.Int("replicas", 1, "router only: shards holding a read copy of each graph")
		vnodes      = fs.Int("vnodes", 0, "router only: consistent-hash points per shard (0 = default)")
		tenantsFile = fs.String("tenants", "", "JSON tenant QoS config file (see docs/QOS.md; hot-reload via POST /admin/tenants)")
		noLegacy    = fs.Bool("disable-legacy", false, "answer 410 Gone on the deprecated unversioned routes (see docs/SERVING.md \"Legacy sunset\")")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	rc, err := validateRole(*role, *shards, *replicas, *vnodes, set)
	if err != nil {
		return err
	}
	if rc.role == "router" {
		return runRouter(rc, *addr, *drainWait, ready)
	}

	cfg := serve.Config{
		Role:             rc.role,
		MaxInFlight:      *maxInflight,
		MaxQueue:         *queue,
		NoQueue:          *queue < 0,
		CacheEntries:     *cacheSize,
		NoCache:          *cacheSize <= 0,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		AllowPathLoad:    *pathLoad,
		EnablePprof:      *pprofOn,
		DefaultReservoir: *reservoir,
		DisableLegacy:    *noLegacy,
	}
	if *tenantsFile != "" {
		tcfg, err := loadTenants(*tenantsFile)
		if err != nil {
			return err
		}
		cfg.Tenants = tcfg
		log.Printf("tenant QoS config %s: %d named tenant(s)", *tenantsFile, len(tcfg.Tenants))
	}
	if *slowMS >= 0 {
		cfg.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
		if *slowLog == "" {
			cfg.SlowQueryLog = os.Stderr
		} else {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open slow-query log: %w", err)
			}
			defer f.Close()
			cfg.SlowQueryLog = f
			log.Printf("slow-query log: %s (threshold %dms)", *slowLog, *slowMS)
		}
	}

	// Durable mode: open the store (running crash recovery — newest
	// valid snapshots plus the WAL tail, torn records truncated), then
	// adopt every recovered graph at the exact (graph, version) it had
	// when the previous process died.
	var st *store.Store
	var recovered []store.Recovered
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		start := time.Now()
		st, recovered, err = store.Open(*dataDir, store.Options{
			Fsync:           policy,
			FsyncInterval:   *fsyncEvery,
			CheckpointBytes: *ckptBytes,
			Logf:            log.Printf,
		})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", *dataDir, err)
		}
		defer st.Close()
		cfg.Store = st
		log.Printf("data dir %s: recovered %d graph(s), wal %d bytes, fsync=%s (%.3fs)",
			*dataDir, len(recovered), st.WALSize(), policy, time.Since(start).Seconds())
	}
	srv := serve.New(cfg)
	defer srv.Close()

	for _, rec := range recovered {
		sn, err := srv.Registry().Adopt(rec.Name, rec.Counter, rec.Version)
		if err != nil {
			return fmt.Errorf("adopt recovered graph %q: %w", rec.Name, err)
		}
		log.Printf("recovered %s v%d from %s (+%d wal batch(es)): %s, %d butterflies",
			rec.Name, sn.Version, rec.Source, rec.Replayed, sn.Graph, sn.Count)
	}

	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			name, scale := strings.TrimSpace(spec), 1
			if at := strings.IndexByte(name, '@'); at >= 0 {
				n, err := strconv.Atoi(name[at+1:])
				if err != nil || n < 1 {
					return fmt.Errorf("bad -preload entry %q (want name[@scale])", spec)
				}
				name, scale = name[:at], n
			}
			// A recovered graph takes precedence over its preload: the
			// durable version (with every mutation it absorbed) is the
			// one the previous process acked.
			if _, err := srv.Registry().Get(name); err == nil {
				log.Printf("preload %s: already recovered from %s, skipping", name, *dataDir)
				continue
			}
			start := time.Now()
			g, err := butterfly.GeneratePaperDataset(name, scale)
			if err != nil {
				return fmt.Errorf("preload %q: %w", spec, err)
			}
			sn, err := srv.Registry().Register(name, g, false)
			if err != nil {
				return fmt.Errorf("preload %q: %w", spec, err)
			}
			log.Printf("preloaded %s v%d: %s, %d butterflies (%.2fs)",
				name, sn.Version, sn.Graph, sn.Count, time.Since(start).Seconds())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Catch the shutdown signals before announcing readiness, so a
	// signal sent as soon as the address is known drains the server
	// instead of killing the process.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.Printf("bfserved listening on %s (max-inflight=%d queue=%d cache=%d timeout=%s)",
		ln.Addr(), *maxInflight, *queue, *cacheSize, *timeout)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: flip /healthz to draining (load balancers
	// stop routing), then let Shutdown drain in-flight requests up to
	// -drain before forcing the listener closed.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("received %v, draining (up to %s)", sig, *drainWait)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		log.Printf("drained, exiting")
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// loadTenants parses a -tenants JSON file into the QoS admission
// config. Unknown fields are rejected so a typo (say "wieght") fails
// at startup instead of silently running with default scheduling.
func loadTenants(path string) (serve.TenantsConfig, error) {
	var cfg serve.TenantsConfig
	f, err := os.Open(path)
	if err != nil {
		return cfg, fmt.Errorf("open -tenants file: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parse -tenants file %s: %w", path, err)
	}
	return cfg, nil
}
