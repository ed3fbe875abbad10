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

// validateRole checks the cluster flag combination before anything
// heavier runs. The rules: -role must be single|shard|router; a
// router requires -shards (absolute http(s) URLs) and owns no data of
// its own, so the storage/preload flags are rejected; single and
// shard daemons don't take placement flags. Defaults (replicas=1,
// vnodes=0) are always fine so plain `bfserved` keeps working.
func validateRole(role, shards string, replicas, vnodes int, dataDir, preload string) (roleConfig, error) {
	rc := roleConfig{role: role, replicas: replicas, vnodes: vnodes}
	switch role {
	case "single", "shard":
		if shards != "" {
			return rc, fmt.Errorf("-shards only applies to -role=router (got -role=%s)", role)
		}
		if replicas != 1 {
			return rc, fmt.Errorf("-replicas only applies to -role=router (got -role=%s)", role)
		}
		if vnodes != 0 {
			return rc, fmt.Errorf("-vnodes only applies to -role=router (got -role=%s)", role)
		}
	case "router":
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
		if dataDir != "" {
			return rc, errors.New("-data-dir does not apply to -role=router: the router is stateless, shards own the data")
		}
		if preload != "" {
			return rc, errors.New("-preload does not apply to -role=router: register graphs through the router API instead")
		}
	default:
		return rc, fmt.Errorf("unknown -role %q (want single, shard, or router)", role)
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
