package main

import (
	"context"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/client"
	"butterfly/serveapi"
)

func TestValidateRole(t *testing.T) {
	for _, tc := range []struct {
		name     string
		role     string
		shards   string
		replicas int
		vnodes   int
		set      string // further flags given on the command line, as name=value
		wantErr  string // substring, "" = ok
	}{
		{name: "single default", role: "single", replicas: 1},
		{name: "shard", role: "shard", replicas: 1},
		{name: "router two shards", role: "router", shards: "http://a:1,http://b:2", replicas: 1},
		{name: "router trims slash and space", role: "router", shards: " http://a:1/ , http://b:2 ", replicas: 2},
		{name: "router replicas vnodes", role: "router", shards: "http://a:1", replicas: 3, vnodes: 128},
		{name: "unknown role", role: "primary", replicas: 1, wantErr: "unknown -role"},
		{name: "router without shards", role: "router", replicas: 1, wantErr: "requires -shards"},
		{name: "router empty shard list", role: "router", shards: " , ", replicas: 1, wantErr: "empty after parsing"},
		{name: "router relative shard url", role: "router", shards: "localhost:8080", replicas: 1, wantErr: "absolute http(s) URL"},
		{name: "router ftp shard url", role: "router", shards: "ftp://a:1", replicas: 1, wantErr: "absolute http(s) URL"},
		{name: "router zero replicas", role: "router", shards: "http://a:1", replicas: 0, wantErr: "-replicas must be"},
		{name: "router negative vnodes", role: "router", shards: "http://a:1", replicas: 1, vnodes: -1, wantErr: "-vnodes must be"},
		{name: "router with data dir", role: "router", shards: "http://a:1", replicas: 1, set: "data-dir", wantErr: "-data-dir does not apply to -role=router"},
		{name: "router with preload", role: "router", shards: "http://a:1", replicas: 1, set: "preload", wantErr: "-preload does not apply to -role=router"},
		{name: "router with tenants", role: "router", shards: "http://a:1", replicas: 1, set: "tenants", wantErr: "-tenants does not apply to -role=router"},
		{name: "router with node knobs", role: "router", shards: "http://a:1", replicas: 1, set: "max-inflight pprof slow-query-ms", wantErr: "-max-inflight does not apply to -role=router"},
		{name: "single with shards", role: "single", shards: "http://a:1", replicas: 1, wantErr: "-shards does not apply to -role=single"},
		{name: "single with explicit default replicas", role: "single", replicas: 1, set: "replicas", wantErr: "-replicas does not apply"},
		{name: "shard with replicas", role: "shard", replicas: 2, wantErr: "-replicas does not apply to -role=shard"},
		{name: "shard with vnodes", role: "shard", replicas: 1, vnodes: 32, wantErr: "-vnodes does not apply to -role=shard"},
		{name: "shard durable", role: "shard", replicas: 1, set: "data-dir=d fsync=always checkpoint-bytes=5"},
		{name: "single slow log", role: "single", replicas: 1, set: "slow-query-ms=0 slow-query-log=x.log pprof=true tenants=t.json"},
		{name: "fsync without data dir", role: "single", replicas: 1, set: "fsync", wantErr: "-fsync has no effect without -data-dir"},
		{name: "checkpoint bytes without data dir", role: "shard", replicas: 1, set: "checkpoint-bytes", wantErr: "-checkpoint-bytes has no effect without -data-dir"},
		{name: "slow log without threshold", role: "single", replicas: 1, set: "slow-query-log=x.log", wantErr: "-slow-query-log has no effect without -slow-query-ms"},
		{name: "slow log with disabled threshold", role: "single", replicas: 1, set: "slow-query-ms=-1 slow-query-log=x.log", wantErr: "-slow-query-log has no effect without -slow-query-ms >= 0"},
		{name: "durable fsync interval", role: "shard", replicas: 1, set: "data-dir=d fsync=interval fsync-interval=5ms"},
		{name: "fsync interval under always", role: "single", replicas: 1, set: "data-dir=d fsync=always fsync-interval=5ms", wantErr: "-fsync-interval has no effect without -fsync interval"},
		{name: "fsync interval at default fsync", role: "single", replicas: 1, set: "data-dir=d fsync-interval=5ms", wantErr: "-fsync-interval has no effect without -fsync interval"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The flags a command line would set: the non-default
			// values, plus the named ones.
			set := map[string]string{}
			for _, f := range strings.Fields(tc.set) {
				name, value, _ := strings.Cut(f, "=")
				set[name] = value
			}
			if tc.shards != "" {
				set["shards"] = tc.shards
			}
			if tc.replicas != 1 {
				set["replicas"] = strconv.Itoa(tc.replicas)
			}
			if tc.vnodes != 0 {
				set["vnodes"] = strconv.Itoa(tc.vnodes)
			}
			rc, err := validateRole(tc.role, tc.shards, tc.replicas, tc.vnodes, set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateRole: %v", err)
				}
				if rc.role != tc.role {
					t.Errorf("role = %q, want %q", rc.role, tc.role)
				}
				if tc.role == "router" && len(rc.shards) == 0 {
					t.Error("router config has no shards")
				}
				for _, s := range rc.shards {
					if strings.HasSuffix(s, "/") || strings.ContainsAny(s, " \t") {
						t.Errorf("shard URL %q not normalized", s)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("validateRole accepted %+v, want error containing %q", tc, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRouterEndToEnd boots two -role=shard daemons and a
// -role=router over them, registers a partitioned graph through the
// router, checks the scatter-gather count is exact, then delivers one
// SIGTERM (all three run goroutines listen) and waits for clean exits.
func TestRunRouterEndToEnd(t *testing.T) {
	boot := func(args ...string) (string, chan error) {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(args, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case err := <-done:
			t.Fatalf("server %v exited before ready: %v", args, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("server %v never became ready", args)
		}
		panic("unreachable")
	}

	s1, done1 := boot("-addr", "127.0.0.1:0", "-role", "shard")
	s2, done2 := boot("-addr", "127.0.0.1:0", "-role", "shard")
	rURL, doneR := boot("-addr", "127.0.0.1:0", "-role", "router", "-shards", s1+","+s2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New(rURL)

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("router health = %+v, %v", h, err)
	}
	if h.Role != "router" {
		t.Errorf("healthz role = %q, want router", h.Role)
	}

	info, err := c.Register(ctx, serveapi.RegisterRequest{Name: "occ", Dataset: "occupations", Scale: 20, Partitions: 2})
	if err != nil {
		t.Fatalf("register via router: %v", err)
	}
	cr, err := c.Count(ctx, "occ", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("count via router: %v", err)
	}
	if cr.Butterflies != info.Butterflies {
		t.Errorf("count %d != register count %d", cr.Butterflies, info.Butterflies)
	}
	if cr.Partitions != 2 {
		t.Errorf("count partitions = %d, want 2", cr.Partitions)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	for i, done := range []chan error{done1, done2, doneR} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server %d exit: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("server %d did not drain after SIGTERM", i)
		}
	}
}
