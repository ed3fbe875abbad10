package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"butterfly/internal/cluster"
)

// roleConfig is the validated cluster identity of this process.
type roleConfig struct {
	role     string   // "single", "shard", or "router"
	shards   []string // router only: shard base URLs
	replicas int      // router only: read replicas per graph
	vnodes   int      // router only: ring points per shard (0 = default)
}

// flagScope says where a flag applies: the roles that read it, and a
// flag that must be set alongside it for it to take effect. Flags not
// in flagScopes (-addr, -drain, -role) apply everywhere.
type flagScope struct {
	roles string // space-separated roles that read the flag ("" = all)
	needs string // flag it takes effect with ("" = none)
}

const nodeRoles = "single shard"

var flagScopes = map[string]flagScope{
	"shards":           {roles: "router"},
	"replicas":         {roles: "router"},
	"vnodes":           {roles: "router"},
	"max-inflight":     {roles: nodeRoles},
	"queue":            {roles: nodeRoles},
	"cache":            {roles: nodeRoles},
	"timeout":          {roles: nodeRoles},
	"max-timeout":      {roles: nodeRoles},
	"preload":          {roles: nodeRoles},
	"allow-path-load":  {roles: nodeRoles},
	"data-dir":         {roles: nodeRoles},
	"fsync":            {needs: "data-dir"},
	"fsync-interval":   {needs: "data-dir"},
	"checkpoint-bytes": {needs: "data-dir"},
	"reservoir":        {roles: nodeRoles},
	"pprof":            {roles: nodeRoles},
	"slow-query-ms":    {roles: nodeRoles},
	"slow-query-log":   {needs: "slow-query-ms"},
	"tenants":          {roles: nodeRoles},
	"disable-legacy":   {roles: nodeRoles},
}

// validateRole checks the flag combination before anything heavier
// runs. set names the flags given on the command line: each must apply
// to the role (flagScopes), so a flag the chosen mode would ignore is
// an error rather than a silent no-op. A router also needs -shards as
// absolute http(s) URLs. Defaults are never checked, so plain
// `bfserved` keeps working.
func validateRole(role, shards string, replicas, vnodes int, set []string) (roleConfig, error) {
	rc := roleConfig{role: role, replicas: replicas, vnodes: vnodes}
	if role != "single" && role != "shard" && role != "router" {
		return rc, fmt.Errorf("unknown -role %q (want single, shard, or router)", role)
	}
	for _, name := range set {
		sc := flagScopes[name]
		if sc.roles != "" && !slices.Contains(strings.Fields(sc.roles), role) {
			return rc, fmt.Errorf("-%s does not apply to -role=%s (only to -role=%s)",
				name, role, strings.ReplaceAll(sc.roles, " ", "|"))
		}
		if sc.needs != "" && !slices.Contains(set, sc.needs) {
			return rc, fmt.Errorf("-%s has no effect without -%s", name, sc.needs)
		}
	}
	if role != "router" {
		return rc, nil
	}
	if shards == "" {
		return rc, errors.New("-role=router requires -shards (comma-separated shard base URLs)")
	}
	for _, s := range strings.Split(shards, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		u, err := url.Parse(s)
		if err != nil || !u.IsAbs() || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return rc, fmt.Errorf("bad -shards entry %q: want an absolute http(s) URL like http://10.0.0.1:8080", s)
		}
		rc.shards = append(rc.shards, strings.TrimRight(s, "/"))
	}
	if len(rc.shards) == 0 {
		return rc, errors.New("-shards is empty after parsing (want comma-separated shard base URLs)")
	}
	if replicas < 1 {
		return rc, fmt.Errorf("-replicas must be >= 1 (got %d)", replicas)
	}
	if vnodes < 0 {
		return rc, fmt.Errorf("-vnodes must be >= 0 (got %d)", vnodes)
	}
	return rc, nil
}

// runRouter is the -role=router serving path: no registry, no store —
// just the cluster router proxying /v1 to the shards in -shards.
func runRouter(rc roleConfig, addr string, drainWait time.Duration, ready chan<- string) error {
	rt, err := cluster.New(cluster.Config{
		Shards:   rc.shards,
		Replicas: rc.replicas,
		VNodes:   rc.vnodes,
	})
	if err != nil {
		return err
	}

	// Learn what the shards already hold (graphs registered by a
	// previous router, or recovered from their WALs). Failure is not
	// fatal: shards may still be booting, and Refresh happens lazily
	// via /admin/rebalance or re-registration too.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := rt.Refresh(ctx); err != nil {
		log.Printf("warning: shard inventory incomplete at startup: %v", err)
	}
	cancel()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Catch the shutdown signals before announcing readiness, so a
	// signal sent as soon as the address is known drains the server
	// instead of killing the process.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.Printf("bfserved router listening on %s (shards=%d replicas=%d)",
		ln.Addr(), len(rc.shards), rc.replicas)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("received %v, draining (up to %s)", sig, drainWait)
		rt.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
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
